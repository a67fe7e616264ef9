package advisor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/faultinject"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/vfs"
)

// register advises the wideTable co-access workload so "events" is tracked.
func register(t *testing.T, svc *Service) *schema.Table {
	t.Helper()
	tab := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(tab)); err != nil {
		t.Fatal(err)
	}
	return tab
}

// trackerLog copies the tracker's observation log under its lock.
func trackerLog(t *testing.T, svc *Service, table string) []schema.TableQuery {
	t.Helper()
	tr, err := svc.tracker(table)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]schema.TableQuery(nil), tr.log...)
}

// observe feeds numeric attribute bitmasks through the service's one
// observation entry as a single-entry batch without a batch ID, rendering
// each bitmask through the registered table's Table.AttrNames — the column
// names every real client sends. Stale-schema cases need a name the
// current schema lacks, so they build ObservedQry values themselves.
func observe(svc *Service, table string, queries []schema.TableQuery) (DriftReport, error) {
	named := make([]ObservedQry, len(queries))
	if tr, err := svc.tracker(table); err == nil {
		tr.mu.Lock()
		tab := tr.table
		tr.mu.Unlock()
		for i, q := range queries {
			named[i] = ObservedQry{Attrs: tab.AttrNames(q.Attrs), Weight: q.Weight}
		}
	}
	outs, _, err := svc.Observe(context.Background(), "", []TableObservation{{Table: table, Queries: named}})
	if err != nil {
		return DriftReport{}, err
	}
	return outs[0].Rep, outs[0].Err
}

// postObserve POSTs a raw /observe body and returns the status and body.
func postObserve(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// Weight-0 unification: both /observe shapes reach the one validator, which
// coerces a zero weight — the JSON default for an omitted field — to 1 and
// rejects negative weights. It once priced differently by entry point: the
// named path coerced 0 while a numeric path accepted it as-is.
func TestObserveWeightZeroUnifiedAcrossEndpoints(t *testing.T) {
	ts, svc, client := newTestServer(t, Config{DriftWindow: 16})
	adviseEvents(t, client)

	if code, body := postObserve(t, ts.URL,
		`{"table":"events","queries":[{"attrs":["a","b"]}]}`); code != http.StatusOK {
		t.Fatalf("single-table observe with weight 0: %d %s", code, body)
	}
	if code, body := postObserve(t, ts.URL,
		`{"batches":[{"table":"events","queries":[{"attrs":["c"],"weight":0}]}]}`); code != http.StatusOK ||
		!strings.Contains(body, `"status": 200`) {
		t.Fatalf("batched observe with weight 0: %d %s", code, body)
	}
	log := trackerLog(t, svc, "events")
	if len(log) < 2 {
		t.Fatalf("log has %d entries, want the 2 observed queries", len(log))
	}
	for _, q := range log[len(log)-2:] {
		if q.Weight != 1 {
			t.Errorf("query %s logged with weight %v, want 0 coerced to 1", q.ID, q.Weight)
		}
	}

	if code, body := postObserve(t, ts.URL,
		`{"table":"events","queries":[{"attrs":["a"],"weight":-1}]}`); code != http.StatusBadRequest {
		t.Errorf("single-table observe with weight -1: %d %s, want 400", code, body)
	}
	if code, body := postObserve(t, ts.URL,
		`{"batches":[{"table":"events","queries":[{"attrs":["a"],"weight":-1}]}]}`); code != http.StatusOK ||
		!strings.Contains(body, `"status": 400`) {
		t.Errorf("batched observe with weight -1: %d %s, want a 400 verdict", code, body)
	}
	// A weight past 2^53 would overflow the drift pricing to a non-finite
	// ratio that no JSON answer carries.
	if code, body := postObserve(t, ts.URL,
		`{"table":"events","queries":[{"attrs":["a"],"weight":1e308}]}`); code != http.StatusBadRequest {
		t.Errorf("single-table observe with weight 1e308: %d %s, want 400", code, body)
	}
	if n := len(trackerLog(t, svc, "events")); n != len(log) {
		t.Errorf("rejected weights grew the log from %d to %d", len(log), n)
	}
}

// Empty observation batches short-circuit on both wire shapes: the
// tracker's counters come back unchanged and NOTHING is journaled — the
// WAL's last sequence number must not move. Every empty batch once
// appended a no-op EvObserve.
func TestObserveEmptyBatchJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	d := durableStore(t, dir, 16)
	svc, err := OpenService(Config{DriftWindow: 16, Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	register(t, svc)

	if _, err := observe(svc, "events", singleColumnBatch()); err != nil {
		t.Fatal(err)
	}
	before := d.LastSeq()
	for _, body := range []string{
		`{"table":"events"}`,
		`{"table":"events","queries":[]}`,
		`{"batches":[{"table":"events","queries":[]}]}`,
		`{"batch_id":"empty-1","batches":[{"table":"events"},{"table":"events","queries":[]}]}`,
	} {
		code, resp := postObserve(t, ts.URL, body)
		if code != http.StatusOK || !strings.Contains(resp, `"observed": 2`) || strings.Contains(resp, `"error"`) {
			t.Errorf("empty batch %s: %d %s, want 200 with observed 2 (unchanged)", body, code, resp)
		}
	}
	if got := d.LastSeq(); got != before {
		t.Errorf("empty batches moved the WAL from seq %d to %d", before, got)
	}
	st := svc.Stats()
	if st.ObservedQueries != 2 || st.ObserveBatches != 1 {
		t.Errorf("stats after empty batches: queries=%d batches=%d, want 2/1",
			st.ObservedQueries, st.ObserveBatches)
	}
}

// The /stats observation counters are batch-accurate: they count QUERIES
// ingested, not HTTP requests, and stay exact under concurrent batching.
// Run with -race; the counters are the regression surface.
func TestStatsObservationCountersBatchAccurate(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64}) // threshold high: no recompute noise
	register(t, svc)

	const workers = 8
	const batches = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				// Batch sizes 1..5 so request count != query count.
				batch := make([]schema.TableQuery, i+1)
				for j := range batch {
					batch[j] = schema.TableQuery{
						ID: fmt.Sprintf("w%db%dq%d", w, i, j), Weight: 1, Attrs: attrset.Of(0, 1),
					}
				}
				if _, err := observe(svc, "events", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := svc.Stats()
	wantQueries := int64(workers * (1 + 2 + 3 + 4 + 5))
	if st.ObservedQueries != wantQueries {
		t.Errorf("ObservedQueries = %d, want %d", st.ObservedQueries, wantQueries)
	}
	if st.ObserveBatches != workers*batches {
		t.Errorf("ObserveBatches = %d, want %d", st.ObserveBatches, workers*batches)
	}
	if st.IngestGroups < 1 || st.IngestGroups > st.ObserveBatches {
		t.Errorf("IngestGroups = %d outside [1, %d]", st.IngestGroups, st.ObserveBatches)
	}
}

// One bad batch in an ingest group fails alone: groupmates for the same and
// other tables commit and report normally.
func TestIngestBadBatchFailsAlone(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64})
	register(t, svc)

	const good = 6
	errs := make([]error, good+1)
	var wg sync.WaitGroup
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = observe(svc, "events", []schema.TableQuery{
				{ID: fmt.Sprintf("g%d", i), Weight: 1, Attrs: attrset.Of(0)},
			})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Column "z" is not in the 4-column schema: ErrStaleSchema.
		outs, _, err := svc.Observe(context.Background(), "", []TableObservation{
			{Table: "events", Queries: []ObservedQry{{Attrs: []string{"z"}, Weight: 1}}},
		})
		if errs[good] = err; err == nil {
			errs[good] = outs[0].Err
		}
	}()
	wg.Wait()
	for i := 0; i < good; i++ {
		if errs[i] != nil {
			t.Errorf("good batch %d: %v", i, errs[i])
		}
	}
	if !errors.Is(errs[good], ErrStaleSchema) {
		t.Errorf("bad batch: err=%v, want ErrStaleSchema", errs[good])
	}
	if st := svc.Stats(); st.ObservedQueries != good {
		t.Errorf("ObservedQueries = %d, want %d (bad batch must not count)", st.ObservedQueries, good)
	}
}

// A failed group commit applies NOTHING: every batch in the group reports
// the retryable ErrJournal, the counters do not move, and the next observe
// (over the self-healed WAL) succeeds.
func TestIngestJournalFailureAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	base, err := vfs.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Write 1 is the registration's commit; write 2 — the first observe
	// group — fails.
	inj := faultinject.New(base, faultinject.FailNthWrite(2))
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{DriftThreshold: 100, DriftWindow: 16, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register(t, svc)

	_, err = observe(svc, "events", singleColumnBatch())
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("observe over failing WAL: err=%v, want ErrJournal", err)
	}
	if got := svc.Stats().ObservedQueries; got != 0 {
		t.Errorf("failed group counted %d observed queries, want 0", got)
	}
	// The log still holds exactly the registration workload's 3 queries:
	// nothing from the failed batch was applied.
	if log := trackerLog(t, svc, "events"); len(log) != 3 {
		t.Errorf("failed group left %d queries in the tracker log, want the 3 registered", len(log))
	}
	if _, err := observe(svc, "events", singleColumnBatch()); err != nil {
		t.Fatalf("retry after journal failure: %v", err)
	}
	if got := svc.Stats().ObservedQueries; got != 2 {
		t.Errorf("after retry ObservedQueries = %d, want 2", got)
	}
}

// Observe applies repeated entries for the SAME table in slice order
// (the wire contract), while entries fail independently.
func TestObserveBatchSameTableOrderAndIsolation(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64})
	register(t, svc)

	outs, _, err := svc.Observe(context.Background(), "", []TableObservation{
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"a"}}, {Attrs: []string{"b"}}}},
		{Table: "ghost", Queries: []ObservedQry{{Attrs: []string{"x"}}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"c"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outcomes for 3 batches", len(outs))
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("events batches errored: %v / %v", outs[0].Err, outs[2].Err)
	}
	if !errors.Is(outs[1].Err, ErrNotRegistered) {
		t.Errorf("ghost batch: err=%v, want ErrNotRegistered", outs[1].Err)
	}
	if outs[0].Rep.Observed != 2 || outs[2].Rep.Observed != 3 {
		t.Errorf("per-batch observed counts %d/%d, want 2 then 3 (slice order)",
			outs[0].Rep.Observed, outs[2].Rep.Observed)
	}
	// The log ends with the 3 observed queries in slice order (after the 3
	// the registration seeded).
	log := trackerLog(t, svc, "events")
	if len(log) != 6 {
		t.Fatalf("log has %d entries, want 3 registered + 3 observed", len(log))
	}
	want := []attrset.Set{attrset.Of(0), attrset.Of(1), attrset.Of(2)}
	for i, q := range log[3:] {
		if q.Attrs != want[i] {
			t.Errorf("observed log[%d].Attrs = %v, want %v (apply order broken)", i, q.Attrs, want[i])
		}
	}
}

// Concurrent duplicate drifted batches: both may recompute, the later
// install wins, and the damage is bounded — at worst ONE redundant
// portfolio search, never stale advice paired under a fresh fingerprint.
func TestObserveConcurrentDuplicateRecompute(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
	register(t, svc)
	searchesBefore := svc.Stats().Searches

	// Eight single-column queries per batch: past the 0.15 threshold on
	// their own, so either batch alone triggers a recompute.
	batch := make([]schema.TableQuery, 8)
	for i := range batch {
		batch[i] = schema.TableQuery{ID: fmt.Sprintf("d%d", i), Weight: 1, Attrs: attrset.Of(i % 2)}
	}
	var wg sync.WaitGroup
	reps := make([]DriftReport, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = observe(svc, "events", batch)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	recomputed := 0
	for _, rep := range reps {
		if rep.Recomputed {
			recomputed++
		}
	}
	if recomputed == 0 {
		t.Fatal("neither duplicate batch recomputed")
	}
	st := svc.Stats()
	if st.Recomputes < 1 || st.Recomputes > 2 {
		t.Errorf("Recomputes = %d, want 1 or 2 (at worst one redundant recompute)", st.Recomputes)
	}
	if extra := st.Searches - searchesBefore; extra > 2 {
		t.Errorf("duplicates ran %d searches, want <= 2 (at worst one redundant)", extra)
	}
	// The surviving pairing must be self-consistent: the fingerprint the
	// tracker serves is the fingerprint of the workload it covers, and the
	// cached advice under it answers without a fresh search.
	advice, fp, err := svc.CurrentState("events")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := svc.tracker("events")
	if err != nil {
		t.Fatal(err)
	}
	_, tw := tr.State()
	if FingerprintOf(tw) != fp {
		t.Error("tracked fingerprint does not cover the tracker's own workload")
	}
	searches := svc.Stats().Searches
	cached, hit, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || svc.Stats().Searches != searches {
		t.Error("recomputed advice was not cached under its snapshot fingerprint")
	}
	if cached.Cost != advice.Cost || !cached.Layout.Equal(advice.Layout) {
		t.Error("cached advice disagrees with the tracked advice")
	}
}

// mergeContexts cancels only when EVERY member is done, and stop releases
// the watchers.
func TestMergeContexts(t *testing.T) {
	a, cancelA := context.WithCancel(context.Background())
	b, cancelB := context.WithCancel(context.Background())
	merged, stop := mergeContexts([]context.Context{a, b})
	defer stop()
	cancelA()
	select {
	case <-merged.Done():
		t.Fatal("merged context canceled with one member still live")
	default:
	}
	cancelB()
	<-merged.Done() // must complete: all members are done

	// Single-member merge is the member itself.
	c, cancelC := context.WithCancel(context.Background())
	m, stop1 := mergeContexts([]context.Context{c})
	defer stop1()
	if m != c {
		t.Error("single-member merge should return the member")
	}
	cancelC()
}
