package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// Failure classes of the error_share breakdown.
const (
	fail5xx       = "5xx"
	fail4xx       = "4xx"
	failShed      = "429_503"
	failTransport = "transport"
	failCheck     = "check"
)

var failClasses = []string{fail5xx, fail4xx, failShed, failTransport, failCheck}

// client is one closed-loop caller with its own keep-alive connection. It
// records every request it makes; nothing is shared between clients, so the
// run merges their records after both have stopped.
type client struct {
	id   int
	base string
	hc   *http.Client
	tr   *tracer

	ops      int64                // operations attempted
	fails    map[string]int64     // failed operations by class
	lat      map[string][]float64 // client-side ms per request, by endpoint
	hits     map[string]int64     // responses answered from a cache, by kind
	misses   map[string]int64     // responses computed, by kind
	work     int64                // workload units done: observed queries or cycles
	checkErr []string             // first few failed output checks
	digest   hash.Hash64          // layouts, checksums and verdicts, in order
	// missMS is client time of requests every report of which was computed
	// (not cached), by endpoint — the input of the storage and replay miss
	// self times.
	missMS map[string][]float64
}

func newClient(id int, base string, tr *tracer) *client {
	return &client{
		id:   id,
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		tr:     tr,
		fails:  map[string]int64{},
		lat:    map[string][]float64{},
		hits:   map[string]int64{},
		misses: map[string]int64{},
		missMS: map[string][]float64{},
		digest: fnv.New64a(),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reset clears the records of a warm-up so that only the timed interval is
// counted. A failure during the warm-up stays a failed output check.
func (c *client) reset() {
	var failed int64
	for _, n := range c.fails {
		failed += n
	}
	if failed > 0 {
		c.checkErr = append(c.checkErr, fmt.Sprintf("client %d: %d failures during the warm-up: %v", c.id, failed, c.fails))
	}
	c.ops, c.work = 0, 0
	c.fails = map[string]int64{}
	c.lat = map[string][]float64{}
	c.hits = map[string]int64{}
	c.misses = map[string]int64{}
	c.missMS = map[string][]float64{}
}

// result is one request's outcome.
type result struct {
	status int
	ms     float64
	err    error // transport or decode error
}

// post sends one JSON request and decodes a 200 answer into out. The
// latency covers the whole round trip: request write, server time and the
// full response body read.
func (c *client) post(path string, body, out any) result {
	b, err := json.Marshal(body)
	if err != nil {
		return result{err: err}
	}
	return c.do(http.MethodPost, path, b, out)
}

func (c *client) get(path string, out any) error {
	r := c.do(http.MethodGet, path, nil, out)
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.status)
	}
	return nil
}

func (c *client) do(method, path string, body []byte, out any) result {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	var id uint64
	if c.tr != nil {
		id = c.tr.newID()
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	if c.tr != nil && method == http.MethodPost {
		c.tr.add(span{Layer: "http", Name: path, ID: id, Start: t0, Dur: d.Seconds()})
	}
	r := result{ms: float64(d) / 1e6, err: err}
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK || out == nil {
		return r
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
	} else if err := json.Unmarshal(data, out); err != nil {
		r.err = fmt.Errorf("decode %s: %w", path, err)
	}
	return r
}

// record books one request of an operation: its latency under endpoint,
// and its failure class when it failed. It returns whether it succeeded.
func (c *client) record(endpoint string, r result) bool {
	c.ops++
	c.lat[endpoint] = append(c.lat[endpoint], r.ms)
	switch {
	case r.err != nil:
		c.fail(failTransport)
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
		c.fail(failShed)
	case r.status >= 500:
		c.fail(fail5xx)
	case r.status >= 400:
		c.fail(fail4xx)
	case r.status != http.StatusOK:
		c.fail(fail4xx)
	default:
		return true
	}
	fmt.Fprintf(c.digest, "%s:%d;", endpoint, r.status)
	return false
}

func (c *client) fail(class string) { c.fails[class]++ }

// checkFailed books a failed output check against the current operation.
func (c *client) checkFailed(format string, args ...any) {
	c.fail(failCheck)
	if len(c.checkErr) < 5 {
		c.checkErr = append(c.checkErr, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// cache books one cached-or-computed answer of a kind.
func (c *client) cache(kind string, cached bool) {
	if cached {
		c.hits[kind]++
	} else {
		c.misses[kind]++
	}
}
