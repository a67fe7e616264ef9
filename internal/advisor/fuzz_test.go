package advisor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzObserveWire POSTs arbitrary bodies to one live /observe over a
// durable store and pins the endpoint's wire contract: no panic, only
// client-side statuses (a malformed body never earns a 5xx), a rejected
// request journals nothing, and a batched 200 answers one verdict per
// entry, each with a status a single-table request could earn. A repeated
// batch ID answers the verdicts of the request that first used it.
//
//	go test -run '^$' -fuzz FuzzObserveWire -fuzztime 10s ./internal/advisor
func FuzzObserveWire(f *testing.F) {
	for _, seed := range []string{
		`{"table":"events","queries":[{"attrs":["a","b"]},{"attrs":["c"],"weight":2}]}`,
		`{"batches":[{"table":"events","queries":[{"attrs":["a"]}]},{"table":"ghost","queries":[{"attrs":["x"]}]}]}`,
		`{"batch_id":"b1","batches":[{"table":"events","queries":[{"attrs":["d"]}]}]}`,
		`{"batch_id":"b1","batches":[{"table":"events"},{"table":"events"}]}`,
		`{"batch_id":"` + strings.Repeat("x", maxBatchIDLen+1) + `","batches":[{"table":"events"}]}`,
		`{"table":"events","queries":[{"attrs":["a"]}],"batches":[{"table":"events","queries":[{"attrs":["a"]}]}]}`,
		`{"batches":[]}`,
		`{"batches":[{"table":"events","queries":[]}]}`,
		`{"table":"events","queries":[{"attrs":["a"],"weight":-1}]}`,
		`{"batches":[{"table":"events","queries":[{"attrs":["a"],"weight":1e308},{"attrs":["b"],"weight":1e308}]}]}`,
		`{"table":"ghost","queries":[{"attrs":["a"]}]}`,
		`{"table":"events","queries":[{"attrs":["nope"]}]}`,
		`{"table":"events","queries":[{"attrs":[]}]}`,
		`{"table":"events","extra":1}`,
		`{"table":"events","queries":[{"attrs":["a"]}]} {}`,
		``,
		`null`,
	} {
		f.Add(seed)
	}

	d := durableStore(f, f.TempDir(), 16)
	svc, err := OpenService(Config{DriftWindow: 16, Store: d})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	if _, _, err := svc.AdviseTable(coAccessWorkload(wideTable(f))); err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	f.Cleanup(ts.Close)
	firstVerdicts := make(map[string]int) // batch ID -> verdicts of its first ingest
	client := &http.Client{Timeout: 20 * time.Second}

	f.Fuzz(func(t *testing.T, body string) {
		before := d.LastSeq()
		resp, err := client.Post(ts.URL+"/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if after := d.LastSeq(); after != before {
				t.Fatalf("status %d moved the WAL from seq %d to %d", resp.StatusCode, before, after)
			}
			return
		default:
			t.Fatalf("status %d for body %q: %s", resp.StatusCode, body, raw)
		}

		var req ObserveRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("200 for a body the decoder rejects: %v", err)
		}
		if len(req.Batches) == 0 {
			return
		}
		var out ObserveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("batched 200 with an undecodable body %q: %v", raw, err)
		}
		want := len(req.Batches)
		if out.Duplicate {
			want = firstVerdicts[req.BatchID]
		} else if req.BatchID != "" {
			firstVerdicts[req.BatchID] = want
		}
		if len(out.Verdicts) != want {
			t.Fatalf("%d verdicts, want %d (duplicate=%t)", len(out.Verdicts), want, out.Duplicate)
		}
		for i, v := range out.Verdicts {
			switch v.Status {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			default:
				t.Fatalf("verdict %d has status %d: %s", i, v.Status, v.Error)
			}
		}
	})
}
