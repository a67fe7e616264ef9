package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"knives/internal/advisor"
)

// scrape is one reading of the daemon's always-on GET /metrics and GET
// /stats plus the Go runtime's counters; per-layer numbers are deltas of
// two scrapes taken around a leg.
type scrape struct {
	prom  map[string]float64
	stats advisor.Stats
	rt    runtimeSample
	host  hostCPU
}

func (l *leg) scrape() (scrape, error) {
	var s scrape
	var err error
	if s.prom, err = l.boot.metrics(); err != nil {
		return s, err
	}
	if err := l.boot.get("/stats", &s.stats); err != nil {
		return s, err
	}
	s.rt = readRuntime()
	s.host = readHostCPU()
	return s, nil
}

// hostCPU is the machine's CPU time in clock ticks, from /proc/stat: all of
// it, and the part the hypervisor took (steal).
type hostCPU struct {
	total, steal float64
}

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseFloat(f[i], 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of the machine's CPU time the hypervisor took
// between two readings.
func stealShare(a, b hostCPU) float64 { return ratio(b.steal-a.steal, b.total-a.total) }

// metrics fetches and parses GET /metrics: sample name (with its labels,
// as exposed) to value.
func (c *client) metrics() (map[string]float64, error) {
	var text []byte
	if err := c.get("/metrics", &text); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: bad value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta is a counter's (or a histogram's _sum/_count's) change between two
// scrapes.
func delta(a, b scrape, name string) float64 { return b.prom[name] - a.prom[name] }

// hist is a histogram's change between two scrapes. family may carry a
// label set, as in `knives_http_request_seconds{path="/observe"}`.
type hist struct {
	count, sum float64
	bounds     []float64 // upper bounds, ascending, +Inf last
	cum        []float64 // cumulative count at each bound
}

func histDelta(a, b scrape, family string) hist {
	name, labels := family, ""
	if i := strings.IndexByte(family, '{'); i >= 0 {
		name, labels = family[:i], family[i+1:len(family)-1]+","
	}
	h := hist{
		count: b.prom[name+"_count"+braces(labels)] - a.prom[name+"_count"+braces(labels)],
		sum:   b.prom[name+"_sum"+braces(labels)] - a.prom[name+"_sum"+braces(labels)],
	}
	prefix := name + "_bucket{" + labels + `le="`
	read := func(s scrape) map[float64]float64 {
		out := map[float64]float64{}
		for k, v := range s.prom {
			if strings.HasPrefix(k, prefix) {
				le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
				if err == nil {
					out[le] = v
				}
			}
		}
		return out
	}
	before, after := read(a), read(b)
	for le := range after {
		h.bounds = append(h.bounds, le)
	}
	sort.Float64s(h.bounds)
	// The exposition skips empty buckets, so a bound missing from the first
	// scrape holds the cumulative count of the nearest bound below it.
	at := func(m map[float64]float64, le float64) float64 {
		best, v := math.Inf(-1), 0.0
		for k, c := range m {
			if k <= le && k > best {
				best, v = k, c
			}
		}
		return v
	}
	for _, le := range h.bounds {
		h.cum = append(h.cum, at(after, le)-at(before, le))
	}
	return h
}

func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(labels, ",") + "}"
}

func (h hist) meanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count * 1e3
}

func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation (bucket grid: 1, 2.5, 5 per decade).
func (h hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, le := range h.bounds {
		if h.cum[i] >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			n := h.cum[i] - prev
			if n <= 0 {
				return le
			}
			return lo + (le-lo)*(rank-prev)/n
		}
		lo, prev = le, h.cum[i]
	}
	return lo
}

// runtimeSample is the process-wide Go runtime counters a leg's allocation
// and GC cost come from.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	r := runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[2].Value.Float64Histogram()
	}
	return r
}

// pauseSeconds estimates the total GC pause time between two samples from
// the runtime's pause histogram (bucket midpoints).
func pauseSeconds(a, b runtimeSample) float64 {
	if a.pauses == nil || b.pauses == nil {
		return 0
	}
	var total float64
	for i := range b.pauses.Counts {
		n := float64(b.pauses.Counts[i] - a.pauses.Counts[i])
		if n == 0 {
			continue
		}
		lo, hi := b.pauses.Buckets[i], b.pauses.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		total += n * (lo + hi) / 2
	}
	return total
}

// percentile of a sample, by linear interpolation between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// host identifies the machine a result came from, so results from
// different hosts are never compared silently.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seconds    float64 `json:"run_seconds"`
}

func fingerprint(seconds float64) host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seconds: seconds}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
