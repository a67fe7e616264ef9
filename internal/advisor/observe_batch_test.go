package advisor

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knives/internal/faultinject"
	"knives/internal/statestore"
	"knives/internal/vfs"
)

// adviseEvents registers the events table on a test server.
func adviseEvents(t *testing.T, client *Client) {
	t.Helper()
	if _, err := client.Advise(context.Background(), eventsRequest()); err != nil {
		t.Fatal(err)
	}
}

// The batched /observe shape end to end: many tables per request, one
// verdict per entry in submission order, entries failing independently with
// the status the single-table path would answer.
func TestServerObserveBatched(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftThreshold: 100, DriftWindow: 64})
	adviseEvents(t, client)

	verdicts, err := client.ObserveBatch(context.Background(), []TableObservation{
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"a", "b"}}, {Attrs: []string{"c"}}}},
		{Table: "ghost", Queries: []ObservedQry{{Attrs: []string{"x"}}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"d"}, Weight: 2}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"nope"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 4 {
		t.Fatalf("%d verdicts for 4 batches", len(verdicts))
	}
	if v := verdicts[0]; v.Status != http.StatusOK || v.Error != "" || v.Drift.Observed != 2 {
		t.Errorf("verdict 0: %+v", v)
	}
	if v := verdicts[1]; v.Status != http.StatusNotFound || v.Error == "" {
		t.Errorf("ghost verdict: status=%d error=%q, want 404", v.Status, v.Error)
	}
	if v := verdicts[2]; v.Status != http.StatusOK || v.Drift.Observed != 3 {
		t.Errorf("verdict 2: %+v", v)
	}
	// Unknown column: resolved inside the tracker against the CURRENT
	// schema, so it reads as a stale-schema conflict (re-advise to fix).
	if v := verdicts[3]; v.Status != http.StatusConflict || v.Error == "" {
		t.Errorf("bad-column verdict: status=%d error=%q, want 409", v.Status, v.Error)
	}
	if v := verdicts[0]; v.Advice.Table != "events" || v.Advice.Fingerprint == "" {
		t.Errorf("success verdict carries no advice: %+v", v.Advice)
	}
	// Counters: 3 queries landed (the bad-column batch did not).
	st := svc.Stats()
	if st.ObservedQueries != 3 || st.ObserveBatches != 2 {
		t.Errorf("stats: queries=%d batches=%d, want 3/2", st.ObservedQueries, st.ObserveBatches)
	}
}

// The batched shape excludes the legacy single-table fields, and the legacy
// shape keeps answering exactly as before: its failures as the status the
// same entry earns as a batched verdict, a 503 with a Retry-After hint.
func TestServerObserveBatchedExcludesLegacyFields(t *testing.T) {
	ts, _, client := newTestServer(t, Config{DriftThreshold: 100})
	adviseEvents(t, client)

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"mixed legacy+batched request",
			`{"table":"events","queries":[{"attrs":["a"]}],"batches":[{"table":"events","queries":[{"attrs":["a"]}]}]}`,
			http.StatusBadRequest},
		{"legacy unknown column", `{"table":"events","queries":[{"attrs":["nope"]}]}`, http.StatusConflict},
	} {
		if code, body := postObserve(t, ts.URL, tc.body); code != tc.want || !strings.Contains(body, `"error"`) {
			t.Errorf("%s: %d %s, want %d with an error body", tc.name, code, body, tc.want)
		}
	}

	// Legacy single-table request still answers with the top-level pair.
	or, err := client.Observe(context.Background(), ObserveRequest{
		Table:   "events",
		Queries: []ObservedQry{{Attrs: []string{"a", "b"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if or.Drift.Table != "events" || or.Drift.Observed != 1 || len(or.Verdicts) != 0 {
		t.Errorf("legacy observe response: %+v", or)
	}
	if or.Advice.Table != "events" {
		t.Errorf("legacy observe advice: %+v", or.Advice)
	}

	// A failed group commit: write 1 is the registration's commit, write 2
	// the first observe group's.
	base, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := statestore.Open(faultinject.New(base, faultinject.FailNthWrite(2)), statestore.Options{DriftWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{DriftThreshold: 100, DriftWindow: 16, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register(t, svc)
	ts503 := httptest.NewServer(NewServer(svc))
	defer ts503.Close()
	resp, err := http.Post(ts503.URL+"/observe", "application/json",
		strings.NewReader(`{"table":"events","queries":[{"attrs":["a"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("legacy observe over a failing WAL: status %d Retry-After %q, want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// ObserveBuffer accumulates per table, flushes at the threshold as one
// batched request, and preserves the buffer on flush errors for a retry.
func TestObserveBufferFlushAt(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftThreshold: 100, DriftWindow: 64})
	adviseEvents(t, client)

	buf := &ObserveBuffer{Client: client, FlushAt: 4}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		vs, err := buf.Add(ctx, "events", ObservedQry{Attrs: []string{"a"}})
		if err != nil {
			t.Fatal(err)
		}
		if vs != nil {
			t.Fatalf("add %d flushed below the threshold", i)
		}
	}
	if buf.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", buf.Pending())
	}
	vs, err := buf.Add(ctx, "events", ObservedQry{Attrs: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Status != http.StatusOK {
		t.Fatalf("threshold flush verdicts: %+v", vs)
	}
	if buf.Pending() != 0 {
		t.Errorf("Pending = %d after flush, want 0", buf.Pending())
	}
	if st := svc.Stats(); st.ObservedQueries != 4 || st.ObserveBatches != 1 {
		t.Errorf("stats after one buffered flush: queries=%d batches=%d, want 4/1",
			st.ObservedQueries, st.ObserveBatches)
	}

	// A flush against a dead server keeps the buffer for retry.
	dead := NewClient("http://127.0.0.1:1")
	buf2 := &ObserveBuffer{Client: dead, FlushAt: 100}
	if _, err := buf2.Add(ctx, "events", ObservedQry{Attrs: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := buf2.Flush(ctx); err == nil {
		t.Fatal("flush to a dead server succeeded")
	}
	if buf2.Pending() != 1 {
		t.Errorf("failed flush dropped the buffer: Pending = %d, want 1", buf2.Pending())
	}
	buf2.Client = client
	vs, err = buf2.Flush(ctx)
	if err != nil || len(vs) != 1 {
		t.Fatalf("retried flush: vs=%v err=%v", vs, err)
	}
}
