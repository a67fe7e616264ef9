package advisor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knives/internal/cost"
	"knives/internal/migrate"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
)

// Config parameterizes a Service.
type Config struct {
	// Model prices layouts; nil defaults to the paper's HDD model on the
	// default disk.
	Model cost.Model
	// DriftThreshold is the relative cost divergence past which cached
	// advice is invalidated and recomputed; <= 0 uses
	// DefaultDriftThreshold.
	DriftThreshold float64
	// DriftWindow bounds how many observed queries each table's tracker
	// retains; 0 uses DefaultDriftWindow, negative keeps the whole log
	// (only sensible for bounded offline replays — the daemon should keep
	// a finite window).
	DriftWindow int
	// CacheCapacity bounds the fingerprint cache; when full, the oldest
	// entries are evicted first. 0 uses DefaultCacheCapacity, negative
	// disables eviction.
	CacheCapacity int
	// TrackerCapacity bounds how many per-table drift trackers the service
	// keeps; when full, the longest-registered tracker is evicted first
	// (its table must be re-advised to be tracked again). 0 uses
	// DefaultTrackerCapacity, negative disables eviction.
	TrackerCapacity int
	// ReplayCacheCapacity bounds the replay report cache (FIFO, like the
	// advice cache). 0 uses DefaultReplayCacheCapacity, negative disables
	// eviction.
	ReplayCacheCapacity int
	// MigrateWindow is the default break-even horizon bound (in queries of
	// the tracked mix) for migration plans whose request does not name one.
	// 0 uses migrate.DefaultWindow.
	MigrateWindow int64
	// MigrateCacheCapacity bounds the migration outcome cache (FIFO, like
	// the replay cache). 0 uses DefaultMigrateCacheCapacity, negative
	// disables eviction.
	MigrateCacheCapacity int
	// DriftTracking selects how trackers price drift per batch: TrackExact
	// (the default, "" or "exact") copies and prices the full observation
	// window; TrackSketch ("sketch") prices a windowed attribute-set
	// frequency sketch — O(distinct attr-sets) per batch with memory
	// independent of stream length, verdict-equivalent on streams whose
	// distinct attr-sets fit SketchCapacity. Recomputes, fingerprints, and
	// caching behave identically in both modes.
	DriftTracking string
	// SketchCapacity bounds the sketch tracker's per-epoch counters; 0
	// uses DefaultSketchCapacity. Ignored under TrackExact.
	SketchCapacity int
	// IngestShards is the number of observe-ingest shards; tables hash to
	// a shard, which serializes and group-commits their batches. 0 uses
	// DefaultIngestShards.
	IngestShards int
	// IngestGroup caps how many pending observation batches one shard
	// leader drains into a single group commit. 0 uses DefaultIngestGroup.
	IngestGroup int
	// Store persists tracker state across restarts. nil (or any store whose
	// Journaling() is false, like statestore.NewMem()) keeps everything
	// in-memory only — the pre-durability behavior. A journaling store
	// (statestore.Open) makes every tracker mutation journal-before-apply
	// and OpenService rebuild the trackers it recovered. The store's drift
	// window should match DriftWindow, or recovered logs are re-trimmed to
	// the smaller of the two.
	Store statestore.Store
	// Telemetry, when set, receives the service's request/ingest/drift
	// latency histograms and counter bindings (and installs the
	// process-wide search-gate wait observer). Nil disables service
	// instrumentation at the cost of one nil check per point. Share the
	// registry with statestore.Options.Metrics and the HTTP server so one
	// /metrics scrape covers the whole daemon.
	Telemetry *telemetry.Registry
}

// DefaultCacheCapacity bounds the advice cache in a long-running daemon:
// every distinct workload fingerprint (and every drift recompute) inserts
// an entry, so without a cap memory grows with the lifetime of the
// process.
const DefaultCacheCapacity = 4096

// DefaultTrackerCapacity bounds the drift trackers for the same reason the
// advice cache is bounded; each tracker holds a schema, up to a drift
// window of logged queries, and the current advice.
const DefaultTrackerCapacity = 1024

// adviceKey identifies one cached advice computation: the workload
// fingerprint plus the canonical key of the model that priced it. The same
// workload priced on a different device is a different question — without
// the model key, an SSD request could be answered with HDD advice.
type adviceKey struct {
	fp    Fingerprint
	model string
}

// Service is a long-running, concurrent partitioning advisor: it answers
// workload questions from a fingerprint-keyed advice cache, computes misses
// by fanning the portfolio out over the parallel search kernel, and watches
// per-table query streams for drift. All methods are safe for concurrent
// use.
type Service struct {
	cfg   Config
	model cost.Model
	// modelKey canonically identifies the configured model for cache
	// keying; per-request model specs resolve their own keys.
	modelKey string
	// store persists tracker state; jn is its journal-before-apply hook
	// (nil when the store does not journal, so the hot path skips event
	// construction entirely).
	store statestore.Store
	jn    *journal

	// mu guards the FIFO-bounded tracker registry, the durable state.
	mu       sync.Mutex
	trackers *statestore.FIFO[string, *Tracker]

	// The caches, each counting its own requests and hits.
	advice     *onceCache[adviceKey, TableAdvice]
	replays    *onceCache[replayKey, *replay.TableReplay]
	execs      *onceCache[execKey, *replay.OperatorReplay]
	migrations *onceCache[migrateKey, *MigrationOutcome]
	// observeSeen is the redelivery-dedup window: recently applied batch
	// IDs and their outcomes, so a client retry after a lost response
	// answers the original ingest instead of double-counting.
	observeSeen *onceCache[string, []ObserveOutcome]

	// ing is the sharded observe-ingest stage: every observation batch
	// funnels through it so concurrent batches share group commits.
	ing *ingester

	// tm holds the telemetry handles; the zero value (no registry) leaves
	// them nil and every instrumentation point free.
	tm svcMetrics

	searches   atomic.Int64 // portfolio searches actually run
	recomputes atomic.Int64 // drift-triggered recomputations

	// Batch-accurate observation counters: queries observed (not HTTP
	// requests), observation batches applied, and group commits — so
	// ingest and shed rates stay meaningful under batching.
	observedQueries atomic.Int64
	observeBatches  atomic.Int64
	ingestGroups    atomic.Int64
}

// NewService returns an empty advisor service. It accepts only
// non-journaling stores (nil, or statestore.NewMem()); a daemon opening a
// durable store uses OpenService, whose recovery can fail.
func NewService(cfg Config) *Service {
	s, err := OpenService(cfg)
	if err != nil {
		// Unreachable without a journaling store: recovery is the only
		// error source, and a non-journaling store recovers nothing.
		panic(fmt.Sprintf("advisor: NewService with a journaling store: %v (use OpenService)", err))
	}
	return s
}

// OpenService builds an advisor service on its configured state store and
// rebuilds a drift tracker for every table the store recovered. Tables
// journaled under a different pricing model than the service now runs are
// dropped (and their reset journaled): their advice, drift pricing, and
// migration plans all belong to hardware the daemon no longer models.
func OpenService(cfg Config) (*Service, error) {
	m := cfg.Model
	if m == nil {
		m = cost.NewHDD(cost.DefaultDisk())
	}
	if !(cfg.DriftThreshold > 0) { // negated compare also catches NaN
		cfg.DriftThreshold = DefaultDriftThreshold
	}
	if cfg.DriftWindow == 0 {
		cfg.DriftWindow = DefaultDriftWindow
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.TrackerCapacity == 0 {
		cfg.TrackerCapacity = DefaultTrackerCapacity
	}
	if cfg.ReplayCacheCapacity == 0 {
		cfg.ReplayCacheCapacity = DefaultReplayCacheCapacity
	}
	if cfg.MigrateWindow == 0 {
		cfg.MigrateWindow = migrate.DefaultWindow
	}
	if cfg.MigrateCacheCapacity == 0 {
		cfg.MigrateCacheCapacity = DefaultMigrateCacheCapacity
	}
	switch cfg.DriftTracking {
	case "", TrackExact, TrackSketch:
	default:
		return nil, fmt.Errorf("advisor: unknown drift tracking mode %q (want %q or %q)",
			cfg.DriftTracking, TrackExact, TrackSketch)
	}
	if cfg.SketchCapacity == 0 {
		cfg.SketchCapacity = DefaultSketchCapacity
	}
	if cfg.IngestShards == 0 {
		cfg.IngestShards = DefaultIngestShards
	}
	if cfg.IngestGroup == 0 {
		cfg.IngestGroup = DefaultIngestGroup
	}
	st := cfg.Store
	if st == nil {
		st = statestore.NewMem()
	}
	s := &Service{
		cfg:         cfg,
		model:       m,
		modelKey:    modelKeyOf(m),
		store:       st,
		jn:          newJournal(st),
		trackers:    statestore.NewFIFO[string, *Tracker](cfg.TrackerCapacity),
		advice:      newOnceCache[adviceKey, TableAdvice](cfg.CacheCapacity),
		replays:     newOnceCache[replayKey, *replay.TableReplay](cfg.ReplayCacheCapacity),
		execs:       newOnceCache[execKey, *replay.OperatorReplay](cfg.ReplayCacheCapacity),
		migrations:  newOnceCache[migrateKey, *MigrationOutcome](cfg.MigrateCacheCapacity),
		observeSeen: newOnceCache[string, []ObserveOutcome](DefaultObserveDedupWindow),
	}
	for _, ts := range st.Recovered() {
		if ts.ModelKey != s.modelKey {
			// Best-effort: a failed reset append leaves the entry in the
			// journal, where the fold resets it at the table's next
			// EvAdviseCommit (and this same check drops it again on the
			// next restart) — it never resurrects into a live tracker.
			if s.jn != nil {
				_ = s.jn.append(statestore.Event{Type: statestore.EvReset, Table: ts.Table.Name})
			}
			continue
		}
		t, err := s.recoverTracker(ts)
		if err != nil {
			return nil, err
		}
		// A recovered set larger than TrackerCapacity (the daemon restarted
		// with a smaller bound) trims oldest-first, like live registration.
		for _, old := range s.trackers.Evictions(ts.Table.Name) {
			if s.jn != nil {
				_ = s.jn.append(statestore.Event{Type: statestore.EvReset, Table: old})
			}
			s.trackers.Drop(old)
		}
		s.trackers.Insert(ts.Table.Name, t)
	}
	s.ing = newIngester(s, cfg.IngestShards, cfg.IngestGroup)
	if cfg.Telemetry != nil {
		s.tm.bind(cfg.Telemetry, s)
	}
	return s, nil
}

// Close snapshots the state store (compacting the journal) and closes it.
// Call it on daemon shutdown, after in-flight requests drained.
func (s *Service) Close() error {
	snapErr := s.store.Snapshot()
	if err := s.store.Close(); err != nil {
		return err
	}
	return snapErr
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// Searches counts portfolio searches whose result was served, seeded,
	// or installed. O2P shadow runs and the rare drift recompute whose
	// install lost a race are kernel work this counter does not include.
	Searches   int64 `json:"searches"`
	Recomputes int64 `json:"recomputes"`
	Cached     int   `json:"cached_entries"`
	Tracked    int   `json:"tracked_tables"`
	// Replays counts replay requests answered; ReplayHits the ones served
	// from the report cache without materializing anything.
	Replays       int64 `json:"replays"`
	ReplayHits    int64 `json:"replay_hits"`
	CachedReplays int   `json:"cached_replays"`
	// Executions counts /query table executions answered; ExecHits the
	// ones served from the exec cache without executing anything.
	Executions       int64 `json:"executions"`
	ExecHits         int64 `json:"exec_hits"`
	CachedExecutions int   `json:"cached_executions"`
	// Migrations counts migration requests answered; MigrateHits the ones
	// served from the outcome cache without planning or executing.
	Migrations       int64 `json:"migrations"`
	MigrateHits      int64 `json:"migrate_hits"`
	CachedMigrations int   `json:"cached_migrations"`
	// Shed counts requests refused with 429 by the server's admission gate.
	// The Service itself never sheds; the serving layer fills this in.
	Shed int64 `json:"shed"`
	// ObservedQueries counts QUERIES ingested by observation batches —
	// not HTTP requests — so ingest rates stay meaningful under batching.
	// ObserveBatches counts the applied batches, and IngestGroups the
	// group commits they coalesced into (groups <= batches; the gap is
	// the amortization the sharded ingest stage bought).
	ObservedQueries int64 `json:"observed_queries"`
	ObserveBatches  int64 `json:"observe_batches"`
	IngestGroups    int64 `json:"ingest_groups"`
	// DuplicateBatches counts batched observes answered from the dedup
	// window without re-ingesting (redeliveries of an applied batch ID).
	DuplicateBatches int64 `json:"duplicate_batches"`
	// Recovery reports what the journaling store replayed at open —
	// snapshot coverage, segments scanned, records replayed, torn-tail and
	// skip counts. Nil for an in-memory (non-journaling) service.
	Recovery *statestore.RecoveryReport `json:"recovery,omitempty"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	tracked := s.trackers.Len()
	s.mu.Unlock()
	// Load hits before requests: a request increments requests first, so
	// this order can only overcount misses, never report a negative count.
	hits := s.advice.hits.Load()
	req := s.advice.requests.Load()
	replayHits := s.replays.hits.Load()
	execHits := s.execs.hits.Load()
	migrateHits := s.migrations.hits.Load()
	var recovery *statestore.RecoveryReport
	if s.store.Journaling() {
		rep := s.store.Report()
		recovery = &rep
	}
	return Stats{
		Recovery:         recovery,
		Requests:         req,
		Hits:             hits,
		Misses:           req - hits,
		Searches:         s.searches.Load(),
		Recomputes:       s.recomputes.Load(),
		Cached:           s.advice.Len(),
		Tracked:          tracked,
		Replays:          s.replays.requests.Load(),
		ReplayHits:       replayHits,
		CachedReplays:    s.replays.Len(),
		Executions:       s.execs.requests.Load(),
		ExecHits:         execHits,
		CachedExecutions: s.execs.Len(),
		Migrations:       s.migrations.requests.Load(),
		MigrateHits:      migrateHits,
		CachedMigrations: s.migrations.Len(),
		ObservedQueries:  s.observedQueries.Load(),
		ObserveBatches:   s.observeBatches.Load(),
		IngestGroups:     s.ingestGroups.Load(),
		DuplicateBatches: s.observeSeen.hits.Load(),
	}
}

// AdviseTable answers one table workload, from cache when the fingerprint
// has been answered before. The second return reports whether the answer
// came from cache (no search kernel invocation by this call).
func (s *Service) AdviseTable(tw schema.TableWorkload) (TableAdvice, bool, error) {
	return s.AdviseTableContext(context.Background(), tw)
}

// AdviseTableContext is AdviseTable under a request context: the deadline
// propagates through the portfolio's search-slot waits.
func (s *Service) AdviseTableContext(ctx context.Context, tw schema.TableWorkload) (TableAdvice, bool, error) {
	advice, _, hit, err := s.adviseTableAs(ctx, tw, s.model, s.modelKey)
	return advice, hit, err
}

// adviseTable is AdviseTable plus the fingerprint the answer is cached
// under, so the HTTP layer can render it without hashing the workload a
// second time.
func (s *Service) adviseTable(ctx context.Context, tw schema.TableWorkload) (TableAdvice, Fingerprint, bool, error) {
	return s.adviseTableAs(ctx, tw, s.model, s.modelKey)
}

// adviseTableAs answers one table workload under an explicit pricing model
// (a wire request's resolved ModelSpec, or the service default). Cache
// entries are scoped to (fingerprint, model key), so the same workload
// priced on different devices never shares advice.
//
// The context governs the search-slot waits of the requester that WINS the
// entry's once; a canceled winner's error entry is dropped like any failed
// computation, so a later request recomputes cleanly. Losers blocked on the
// once wait for the winner regardless of their own deadlines — the wait is
// bounded by one search, and the handler's deadline still bounds the whole
// request.
func (s *Service) adviseTableAs(ctx context.Context, tw schema.TableWorkload, m cost.Model, mkey string) (TableAdvice, Fingerprint, bool, error) {
	if tw.Table == nil {
		return TableAdvice{}, Fingerprint{}, false, fmt.Errorf("advisor: nil table")
	}
	for _, q := range tw.Queries {
		if !(q.Weight >= 0) { // negated compare also rejects NaN
			return TableAdvice{}, Fingerprint{}, false, fmt.Errorf(
				"advisor: query %s has invalid weight %v (it would corrupt the cost comparison)", q.ID, q.Weight)
		}
	}
	// Zero weights price as 1 (the ForTable convention) and fingerprint as
	// 1; searching with the raw workload would let two differently-priced
	// workloads share a cache entry.
	tw = normalizeWeights(tw)
	t0 := time.Now()
	fp := FingerprintOf(tw)
	advice, hit, err := s.advice.Get(adviceKey{fp: fp, model: mkey}, func() (TableAdvice, error) {
		s.searches.Add(1)
		sctx, sp := telemetry.StartSpan(ctx, "portfolio-search "+tw.Table.Name)
		tSearch := time.Now()
		advice, err := AdviseTableContext(sctx, tw, m)
		sp.End()
		s.tm.search.Since(tSearch)
		return advice, err
	})
	if err != nil {
		return TableAdvice{}, fp, false, err
	}
	// Register (for the daemon's own model): the helper preserves a live
	// tracker's observation state when the same workload is re-advised,
	// restores evicted trackers (the documented ErrNotRegistered remedy,
	// which must work even while the advice cache still answers), and
	// resets on a genuinely different registration.
	//
	// Requests priced on a per-request model are WHAT-IF questions: they
	// are answered (and cached) under their own device key but must not
	// touch the tracker — a read-shaped exploratory /advise on SSD would
	// otherwise wipe the accumulated drift log and rebind the applied
	// layout of a store the daemon tracks on its configured hardware. A
	// client that wants tracked SSD tables runs the daemon with -model ssd.
	if mkey == s.modelKey {
		// A journal-append failure surfaces as the request's error: the
		// registration was not applied (journal-before-apply), the advice
		// entry stays cached, and the client's retry re-attempts exactly
		// the registration.
		if err := s.registerTracker(tw, advice, fp, m, mkey); err != nil {
			return TableAdvice{}, fp, false, err
		}
	}
	if hit {
		s.tm.adviseHit.Since(t0)
	} else {
		s.tm.adviseMiss.Since(t0)
	}
	return advice, fp, hit, nil
}

// registerTracker creates or refreshes the drift tracker for a table after
// advice was answered. Trackers are keyed by table NAME and the last
// registration wins: a client advising a different workload under an
// existing name takes the name over, exactly like re-creating a table in a
// database. Re-advising the workload the tracker is already registered
// with (matched by fingerprint, NOT by cache residency — the advice cache
// may have evicted the entry independently) is a no-op that preserves the
// accumulated observation log and any in-flight recompute. Clients sharing
// a knivesd must own their table names; the tracker's in-lock validation
// turns the racy window into a clean ErrStaleSchema/ErrBadObservation,
// never garbage pricing.
//
// The tracker map mirrors the advice cache's FIFO bound: each tracker
// holds a schema, a query log, and advice, so an unbounded map would grow
// with every distinct table name for the life of the daemon. Like the
// cache's order slice, trackerOrder lists exactly the live tracker names,
// oldest registration first, each once.
// Every durable mutation here journals BEFORE it applies, under the same
// s.mu that orders it, so the journal's event order is the apply order:
// evictions append their EvReset and drop one at a time, then the new
// registration appends its EvAdviseCommit and inserts. A failed append
// returns with journal and memory still agreeing on everything already
// applied.
func (s *Service) registerTracker(tw schema.TableWorkload, advice TableAdvice, fp Fingerprint, m cost.Model, mkey string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.trackers.Get(tw.Table.Name)
	if !ok {
		for _, old := range s.trackers.Evictions(tw.Table.Name) {
			if s.jn != nil {
				if err := s.jn.append(statestore.Event{Type: statestore.EvReset, Table: old}); err != nil {
					return err
				}
			}
			s.trackers.Drop(old)
		}
		if s.jn != nil {
			if err := s.jn.append(commitEvent(tw, advice, fp, mkey)); err != nil {
				return err
			}
		}
		s.trackers.Insert(tw.Table.Name,
			newTracker(tw, advice, m, mkey, s.cfg.DriftThreshold, s.cfg.DriftWindow, fp, s.jn, s.cfg.newPricer()))
		return nil
	}
	// The fingerprint check and reset happen under s.mu so they always
	// apply to the LIVE tracker: with the lock released in between, an
	// eviction + re-registration could swap the map entry and this reset
	// would mutate an orphan while the live tracker kept another
	// workload's state. Tracker methods take only t.mu and never s.mu, so
	// holding s.mu across them cannot deadlock.
	if t.matches(fp, mkey) {
		return nil // an already-covered workload re-advised: keep the state
	}
	return t.setAdvice(tw, advice, fp, m, mkey)
}

// AdviseBenchmark answers every table of a benchmark, fanning tables out
// concurrently. Advice is sorted by table name; hits[i] corresponds to
// advice[i].
func (s *Service) AdviseBenchmark(b *schema.Benchmark) ([]TableAdvice, []bool, error) {
	if b == nil {
		return nil, nil, fmt.Errorf("advisor: nil benchmark")
	}
	tws := b.TableWorkloads()
	advice := make([]TableAdvice, len(tws))
	hits := make([]bool, len(tws))
	err := fanOut(len(tws), func(i int) error {
		var err error
		advice[i], hits[i], err = s.AdviseTable(tws[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// Sort advice and hit flags together by table name.
	idx := make([]int, len(advice))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		return advice[idx[i]].Table.Name < advice[idx[j]].Table.Name
	})
	sortedAdvice := make([]TableAdvice, len(advice))
	sortedHits := make([]bool, len(hits))
	for i, k := range idx {
		sortedAdvice[i] = advice[k]
		sortedHits[i] = hits[k]
	}
	return sortedAdvice, sortedHits, nil
}

// ObserveOutcome is one batch entry's result from Observe.
type ObserveOutcome struct {
	Table string
	Rep   DriftReport
	Err   error
}

// ingestBatches ingests many tables' observation batches. Entries fail
// independently — outcome i always answers batches[i]. Distinct tables are
// submitted concurrently, so one request's batches land in the ingest stage
// together and coalesce into shared group commits; repeated entries for the
// SAME table are submitted in slice order, preserving that table's apply
// order. An empty entry answers its tracker's counters without journaling a
// no-op event or entering the ingest stage.
func (s *Service) ingestBatches(ctx context.Context, batches []TableObservation) []ObserveOutcome {
	out := make([]ObserveOutcome, len(batches))
	byTable := make(map[string][]int, len(batches))
	var tables []string // first-appearance order of distinct tables
	for i, b := range batches {
		out[i].Table = b.Table
		if _, ok := byTable[b.Table]; !ok {
			tables = append(tables, b.Table)
		}
		byTable[b.Table] = append(byTable[b.Table], i)
	}
	var wg sync.WaitGroup
	for _, tbl := range tables {
		wg.Add(1)
		go func(tbl string, idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				t, err := s.tracker(tbl)
				switch {
				case err != nil:
					out[i].Err = err
				case len(batches[i].Queries) == 0:
					out[i].Rep = t.report()
				default:
					out[i].Rep, out[i].Err = s.ing.submit(ctx,
						&ingestJob{tracker: t, table: tbl, named: batches[i].Queries})
				}
			}
		}(tbl, byTable[tbl])
	}
	wg.Wait()
	return out
}

// ErrNotRegistered reports an operation on a table no drift tracker covers
// — never advised, or evicted past TrackerCapacity. The remedy is to
// advise the table (again).
var ErrNotRegistered = errors.New("advisor: table is not registered")

// tracker looks up the drift tracker of a registered table.
func (s *Service) tracker(table string) (*Tracker, error) {
	s.mu.Lock()
	t, ok := s.trackers.Get(table)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (advise on it first)", ErrNotRegistered, table)
	}
	return t, nil
}

// afterObserve books a drift recompute into the stats and the cache, and
// evicts the replay reports the recompute invalidated.
func (s *Service) afterObserve(rep DriftReport, rec *recomputedAdvice, err error) (DriftReport, error) {
	if err != nil {
		return rep, err
	}
	if rep.Recomputed && rec != nil {
		s.recomputes.Add(1)
		s.searches.Add(1) // the tracker ran a portfolio search
		// The advice was computed for exactly rec.snapshot under
		// rec.modelKey's device, so the pairing is safe to cache even if
		// newer batches have since moved the tracker.
		snapFP := FingerprintOf(rec.snapshot)
		s.advice.Put(adviceKey{fp: snapFP, model: rec.modelKey}, rec.advice)
		// A recompute means the advice this tracker serves MOVED: replay
		// reports and executions cached under the fingerprint it covered
		// until now (and under the snapshot's own key, if a client replayed
		// it while an older advice entry answered it) describe a layout the
		// daemon no longer advises. Without this eviction, a post-drift
		// /replay or /query would serve the stale layout's report from
		// cache.
		stale := func(fp Fingerprint) bool { return fp == rec.prevFP || fp == snapFP }
		s.replays.DropFunc(func(k replayKey) bool { return stale(k.fp) })
		s.execs.DropFunc(func(k execKey) bool { return stale(k.fp) })
	}
	return rep, nil
}

// CurrentState returns the tracked advice for a registered table together
// with the fingerprint of the workload it currently covers.
func (s *Service) CurrentState(table string) (TableAdvice, Fingerprint, error) {
	t, err := s.tracker(table)
	if err != nil {
		return TableAdvice{}, Fingerprint{}, err
	}
	advice, tw := t.State()
	return advice, FingerprintOf(tw), nil
}

// TrackedTables returns the names of tables with drift trackers, sorted.
func (s *Service) TrackedTables() []string {
	s.mu.Lock()
	names := s.trackers.Keys()
	s.mu.Unlock()
	sort.Strings(names)
	return names
}
