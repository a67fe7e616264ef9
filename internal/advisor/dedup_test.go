package advisor

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Regression: retries made POST /observe at-least-once, so a response lost
// AFTER the server applied a batch re-ingested the whole batch and
// double-counted every query in it. The batch-ID window must answer a
// replayed ID from the original outcomes without touching the trackers.
func TestObserveBatchIDDedup(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftWindow: 64})
	if _, err := client.Advise(context.Background(), eventsRequest()); err != nil {
		t.Fatal(err)
	}
	batches := []TableObservation{{Table: "events", Queries: []ObservedQry{
		{Attrs: []string{"a", "b"}},
		{Attrs: []string{"c", "d"}},
	}}}
	ctx := context.Background()
	before := svc.Stats().ObservedQueries

	outs1, dup1, err := svc.Observe(ctx, "batch-1", batches)
	if err != nil || dup1 {
		t.Fatalf("first delivery: outs=%v dup=%v err=%v", outs1, dup1, err)
	}
	outs2, dup2, err := svc.Observe(ctx, "batch-1", batches)
	if err != nil {
		t.Fatal(err)
	}
	if !dup2 {
		t.Error("replayed batch ID not flagged as duplicate")
	}
	if len(outs2) != len(outs1) || outs2[0].Table != "events" || outs2[0].Err != nil {
		t.Errorf("replayed outcomes %+v differ from original %+v", outs2, outs1)
	}
	st := svc.Stats()
	if got := st.ObservedQueries - before; got != 2 {
		t.Errorf("observed %d queries after redelivery, want 2 (the replay double-counted)", got)
	}
	if st.DuplicateBatches != 1 {
		t.Errorf("DuplicateBatches = %d, want 1", st.DuplicateBatches)
	}

	// A DIFFERENT ID is a new logical batch and ingests again.
	if _, dup3, err := svc.Observe(ctx, "batch-2", batches); err != nil || dup3 {
		t.Fatalf("fresh batch ID: dup=%v err=%v", dup3, err)
	}
	if got := svc.Stats().ObservedQueries - before; got != 4 {
		t.Errorf("observed %d queries after a fresh ID, want 4", got)
	}
	// An empty ID skips dedup (pre-ID clients keep their behavior).
	if _, dup, err := svc.Observe(ctx, "", batches); err != nil || dup {
		t.Fatalf("empty batch ID: dup=%v err=%v", dup, err)
	}
	// An oversized ID is rejected before it can lever the window's memory.
	if _, _, err := svc.Observe(ctx, strings.Repeat("x", maxBatchIDLen+1), batches); !errors.Is(err, ErrBadObservation) {
		t.Errorf("oversized batch ID error = %v, want ErrBadObservation", err)
	}
}

// End-to-end redelivery: a proxy drops the FIRST /observe response on the
// floor after the server has applied the batch, the client retries, and the
// ingested query count must still count the batch exactly once.
func TestObserveBatchRedeliveryDoesNotDoubleCount(t *testing.T) {
	ts, svc, direct := newTestServer(t, Config{DriftWindow: 64})
	if _, err := direct.Advise(context.Background(), eventsRequest()); err != nil {
		t.Fatal(err)
	}

	var dropped atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("proxy read: %v", err)
			return
		}
		resp, err := http.Post(ts.URL+r.URL.Path, r.Header.Get("Content-Type"), strings.NewReader(string(body)))
		if err != nil {
			t.Errorf("proxy forward: %v", err)
			return
		}
		defer resp.Body.Close()
		if r.URL.Path == "/observe" && dropped.CompareAndSwap(false, true) {
			// The server HAS applied the batch; lose the response in
			// transit by killing the connection mid-reply.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	client := NewClient(proxy.URL)
	client.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	before := svc.Stats().ObservedQueries

	verdicts, err := client.ObserveBatch(context.Background(), []TableObservation{
		{Table: "events", Queries: []ObservedQry{
			{Attrs: []string{"a", "b"}},
			{Attrs: []string{"a", "c"}},
			{Attrs: []string{"c", "d"}},
		}},
	})
	if err != nil {
		t.Fatalf("ObserveBatch through lossy proxy: %v", err)
	}
	if len(verdicts) != 1 || verdicts[0].Error != "" {
		t.Fatalf("verdicts = %+v", verdicts)
	}
	if !dropped.Load() {
		t.Fatal("proxy never dropped a response; the retry path was not exercised")
	}
	st := svc.Stats()
	if got := st.ObservedQueries - before; got != 3 {
		t.Errorf("server ingested %d queries, want 3 (redelivery double-counted the batch)", got)
	}
	if st.DuplicateBatches != 1 {
		t.Errorf("DuplicateBatches = %d, want 1", st.DuplicateBatches)
	}
}
