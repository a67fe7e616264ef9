package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"knives/internal/advisor"
	"knives/internal/attrset"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/storage"
	"knives/internal/workgen"
)

// Workload names, in BENCHMARK.json order.
var workloadNames = []string{"ingest", "advise", "execute", "drift"}

// newWorkload returns fresh per-leg state for a named workload.
func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest":
		return &ingest{acked: map[string]int64{}}, nil
	case "advise":
		return &advise{}, nil
	case "execute":
		return &execute{}, nil
	case "drift":
		return &drift{acked: map[string]int64{}, applied: map[string]string{}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// rng returns client c's generator for one stream of a run seed.
func rng(seed int64, c int, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(c+1)<<32|stream))
}

// canonical renders a layout order-independently: each partition's columns
// in the order given, partitions sorted.
func canonical(layout [][]string) string {
	parts := make([]string, len(layout))
	for i, p := range layout {
		parts[i] = strings.Join(p, ",")
	}
	sort.Strings(parts)
	return strings.Join(parts, " | ")
}

// recoveredLayout renders a recovered applied layout like canonical, with
// each partition's columns in table order (the order the wire uses).
func recoveredLayout(ts statestore.TableState) string {
	layout := make([][]string, len(ts.Applied.Parts))
	for i, mask := range ts.Applied.Parts {
		for a, col := range ts.Table.Columns {
			if mask&(1<<a) != 0 {
				layout[i] = append(layout[i], col.Name)
			}
		}
	}
	return canonical(layout)
}

// checkPartition verifies that a layout puts every column of the table in
// exactly one non-empty partition.
func checkPartition(layout [][]string, t *schema.Table) error {
	seen := map[string]bool{}
	for _, p := range layout {
		if len(p) == 0 {
			return fmt.Errorf("empty partition in %v", layout)
		}
		for _, col := range p {
			if t.AttrIndex(col) < 0 || seen[col] {
				return fmt.Errorf("column %q unknown or repeated in %v", col, layout)
			}
			seen[col] = true
		}
	}
	if len(seen) != t.NumAttrs() {
		return fmt.Errorf("layout covers %d of %d columns", len(seen), t.NumAttrs())
	}
	return nil
}

// statusClass is the failure class of a non-200 status.
func statusClass(status int) string {
	switch {
	case status == 429 || status == 503:
		return failShed
	case status >= 500:
		return fail5xx
	default:
		return fail4xx
	}
}

// observed converts table queries to wire observations.
func observed(t *schema.Table, qs []schema.TableQuery) []advisor.ObservedQry {
	out := make([]advisor.ObservedQry, len(qs))
	for i, q := range qs {
		out[i] = advisor.ObservedQry{Attrs: t.AttrNames(q.Attrs), Weight: q.Weight}
	}
	return out
}

// adviseBody is the /advise request for one explicit table workload.
func adviseBody(tw schema.TableWorkload) advisor.AdviseRequest {
	t := tw.Table
	spec := advisor.TableSpec{Name: t.Name, Rows: t.Rows}
	for _, c := range t.Columns {
		spec.Columns = append(spec.Columns, advisor.ColumnSpec{Name: c.Name, Kind: c.Kind.String(), Size: c.Size})
	}
	req := advisor.AdviseRequest{Tables: []advisor.TableSpec{spec}}
	for _, q := range tw.Queries {
		req.Queries = append(req.Queries, advisor.QuerySpec{ID: q.ID, Weight: q.Weight,
			Tables: map[string][]string{t.Name: t.AttrNames(q.Attrs)}})
	}
	return req
}

// randomTable draws a table of ncols columns of mixed kinds and widths.
func randomTable(r *rand.Rand, name string, ncols int, rows int64) (*schema.Table, error) {
	kinds := []struct {
		kind schema.ColumnKind
		size int
	}{
		{schema.KindInt, 4}, {schema.KindDecimal, 8}, {schema.KindDate, 4},
		{schema.KindChar, 1}, {schema.KindChar, 10}, {schema.KindVarchar, 25}, {schema.KindVarchar, 44},
	}
	cols := make([]schema.Column, ncols)
	for i := range cols {
		k := kinds[r.IntN(len(kinds))]
		cols[i] = schema.Column{Name: fmt.Sprintf("c%02d", i), Kind: k.kind, Size: k.size}
	}
	return schema.NewTable(name, rows, cols)
}

// ---- ingest ----------------------------------------------------------------

// ingest: batched /observe, 4 tables × 64 queries per request, over every
// table the TPC-H and SSB set-up registered. The clients own disjoint
// tables, and queries are drawn from each table's own benchmark workload,
// so drift stays below threshold.
type ingest struct {
	owned [numClients][]string
	mu    sync.Mutex
	acked map[string]int64 // observed queries acknowledged, by table
}

const (
	ingestTables  = 4
	ingestQueries = 64
)

func (w *ingest) setup(l *leg) error {
	var usable []string
	for _, name := range l.tableNames() {
		if len(l.table(name).workload.Queries) > 0 {
			usable = append(usable, name)
		}
	}
	for i, name := range usable {
		w.owned[i%numClients] = append(w.owned[i%numClients], name)
	}
	for _, own := range w.owned {
		if len(own) < ingestTables {
			return fmt.Errorf("a client owns %d observable tables, need %d", len(own), ingestTables)
		}
	}
	return nil
}

func (w *ingest) loop(l *leg, c *client) func() {
	r := rng(l.seed, c.id, 1)
	tables := w.owned[c.id]
	k := 0
	return func() {
		req := advisor.ObserveRequest{BatchID: fmt.Sprintf("ingest-%d-%d", c.id, k)}
		for j := 0; j < ingestTables; j++ {
			reg := l.table(tables[(k*ingestTables+j)%len(tables)])
			qs := make([]schema.TableQuery, ingestQueries)
			for i := range qs {
				qs[i] = reg.workload.Queries[r.IntN(len(reg.workload.Queries))]
			}
			req.Batches = append(req.Batches, advisor.TableObservation{Table: reg.table.Name, Queries: observed(reg.table, qs)})
		}
		k++
		var resp advisor.ObserveResponse
		if !c.record("/observe", c.post("/observe", req, &resp)) {
			return
		}
		if len(resp.Verdicts) != len(req.Batches) {
			c.checkFailed("/observe answered %d verdicts for %d batches", len(resp.Verdicts), len(req.Batches))
			return
		}
		for i, v := range resp.Verdicts {
			if v.Status != 200 {
				c.fail(statusClass(v.Status))
				return
			}
			if v.Table != req.Batches[i].Table || v.Drift.Recomputed {
				c.checkFailed("verdict %d: table %q recomputed=%v", i, v.Table, v.Drift.Recomputed)
				return
			}
		}
		w.mu.Lock()
		for i, v := range resp.Verdicts {
			n := int64(len(req.Batches[i].Queries))
			w.acked[v.Table] += n
			c.work += n
			fmt.Fprintf(c.digest, "%s:%d:%.17g;", v.Table, v.Drift.Observed, v.Drift.Ratio)
		}
		w.mu.Unlock()
	}
}

func (w *ingest) finish(l *leg) error {
	var acked int64
	for _, c := range l.clients {
		acked += c.work
	}
	if got := l.after.stats.ObservedQueries - l.before.stats.ObservedQueries; got != acked {
		return fmt.Errorf("ingest: /stats observed_queries moved by %d, clients were acknowledged %d", got, acked)
	}
	if got := l.after.stats.Recomputes - l.before.stats.Recomputes; got != 0 {
		return fmt.Errorf("ingest: %d drift recomputes, want 0", got)
	}
	return nil
}

func (w *ingest) durable(l *leg, rec recovery) error {
	for _, own := range w.owned {
		for _, name := range own {
			ts, ok := rec.tables[name]
			if !ok {
				return fmt.Errorf("ingest: table %s not recovered", name)
			}
			if ts.Observed != w.acked[name] {
				return fmt.Errorf("ingest: table %s recovered %d observed queries, %d were acknowledged", name, ts.Observed, w.acked[name])
			}
			if got, want := recoveredLayout(ts), canonical(l.table(name).layout); got != want {
				return fmt.Errorf("ingest: table %s recovered applied layout %s, want %s", name, got, want)
			}
		}
	}
	return nil
}

// ---- advise ----------------------------------------------------------------

// advise: /advise on seeded single-table workgen workloads of 8–64 columns.
// Three in 4 requests are new fingerprints and every fourth repeats one of
// the client's last 8. A workload references at most adviseMaxRefs of its
// table's columns, spread over the whole width.
type advise struct{}

// adviseMaxRefs caps the referenced attributes of an advise workload. Trojan
// refuses more than 20, which fails the whole portfolio with HTTP 500, and
// the benchmark's operations must not fail. Search time climbs steeply
// towards that cap: on a 64-column table a fragmented workload over 20
// columns took about four times as long as one over 16 (170 against 45 ms
// on a 2-vCPU Xeon), and the few such searches in a run decided every
// figure of it.
const adviseMaxRefs = 16

type adviceAsk struct {
	body   advisor.AdviseRequest
	table  *schema.Table
	ok     bool // an earlier answer succeeded
	fp     string
	layout string
}

func (w *advise) setup(*leg) error { return nil }

// adviseShape is one (width, fragmentation) cell of the advise deck.
type adviseShape struct {
	cols int
	frag float64
}

// adviseDeck crosses five widths from 8 to 64 columns with the three
// fragmentations. Clients walk it in seeded order, so every run draws each
// shape equally often and completes many passes: the portfolio's cost
// grows steeply with the referenced width and the fragmentation, and
// independent draws would move the run's mean cost with the seed.
func adviseDeck() []adviseShape {
	var deck []adviseShape
	for _, cols := range []int{8, 16, 24, 40, 64} {
		for _, f := range []float64{0.1, 0.5, 0.9} {
			deck = append(deck, adviseShape{cols, f})
		}
	}
	return deck
}

func (w *advise) loop(l *leg, c *client) func() {
	r := rng(l.seed, c.id, 2)
	deck := adviseDeck()
	var recent []*adviceAsk
	n, k := 0, 0
	return func() {
		var a *adviceAsk
		if n++; n%4 == 0 && len(recent) > 0 {
			a = recent[r.IntN(len(recent))]
		} else {
			if k%len(deck) == 0 {
				r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			shape := deck[k%len(deck)]
			// Table names recycle over a pool so the trackers the requests
			// register stay below the daemon's tracker capacity.
			name := fmt.Sprintf("adv_c%d_t%03d", c.id, k%256)
			k++
			t, err := randomTable(r, name, shape.cols, int64(1+r.IntN(10))*1_000_000)
			if err != nil {
				panic(err) // the generator only draws valid tables
			}
			tw, err := referencing(r, t, min(shape.cols, adviseMaxRefs), workgen.Config{
				Queries:       10 + r.IntN(31),
				Fragmentation: shape.frag,
				MeanAttrs:     2 + r.IntN(7),
				Seed:          r.Int64(),
			})
			if err != nil {
				panic(err)
			}
			a = &adviceAsk{body: adviseBody(tw), table: t}
			recent = append(recent, a)
			if len(recent) > 8 {
				recent = recent[1:]
			}
		}
		var resp advisor.AdviseResponse
		if !c.record("/advise", c.post("/advise", a.body, &resp)) {
			return
		}
		if len(resp.Advice) != 1 {
			c.checkFailed("/advise answered %d tables, want 1", len(resp.Advice))
			return
		}
		adv := resp.Advice[0]
		if err := checkPartition(adv.Layout, a.table); err != nil {
			c.checkFailed("%s: %v", a.table.Name, err)
			return
		}
		layout := canonical(adv.Layout)
		if a.ok && (!adv.Cached || adv.Fingerprint != a.fp || layout != a.layout) {
			c.checkFailed("%s: repeat answered cached=%v fp %s layout %s, first answer fp %s layout %s",
				a.table.Name, adv.Cached, adv.Fingerprint, layout, a.fp, a.layout)
			return
		}
		a.ok, a.fp, a.layout = true, adv.Fingerprint, layout
		c.cache("advice", adv.Cached)
		fmt.Fprintf(c.digest, "%s:%s:%s;", adv.Fingerprint, adv.Algorithm, layout)
	}
}

// referencing generates a workgen workload over refs seeded columns of t,
// spread over its whole width; the other columns are never referenced.
func referencing(r *rand.Rand, t *schema.Table, refs int, cfg workgen.Config) (schema.TableWorkload, error) {
	cols := r.Perm(t.NumAttrs())[:refs]
	sort.Ints(cols)
	sub := make([]schema.Column, refs)
	for i, c := range cols {
		sub[i] = t.Columns[c]
	}
	st, err := schema.NewTable(t.Name, t.Rows, sub)
	if err != nil {
		return schema.TableWorkload{}, err
	}
	sw, err := workgen.Generate(st, cfg)
	if err != nil {
		return schema.TableWorkload{}, err
	}
	tw := schema.TableWorkload{Table: t}
	for _, q := range sw.Queries {
		var s attrset.Set
		q.Attrs.ForEach(func(a int) { s = s.Add(cols[a]) })
		q.Attrs = s
		tw.Queries = append(tw.Queries, q)
	}
	return tw, nil
}

func (w *advise) finish(*leg) error            { return nil }
func (w *advise) durable(*leg, recovery) error { return nil }

// ---- execute ---------------------------------------------------------------

// execute: /query in row mode, in vector mode, in vector mode with a seeded
// σ, and /replay, in equal shares over TPC-H and SSB at execRows rows. Each
// request uses a fresh seed, except every fourth, which repeats one of the
// client's last 32.
type execute struct{}

const execRows = 20_000

// Execute request kinds, sent in equal shares.
const (
	execRow = iota
	execVector
	execSelect
	execReplay
	execKinds
)

type execAsk struct {
	kind  int
	bench string
	seed  int64
	sel   *advisor.SelectionSpec
}

// execReports is the part of a /query or /replay answer the checks read.
// Decoding only these fields keeps the client's share of the CPU small: the
// full answers carry every operator's accounting.
type execReports struct {
	Reports []struct {
		Table       string    `json:"table"`
		Exact       bool      `json:"exact"`
		MaxAbsDelta float64   `json:"max_abs_delta"`
		Cached      bool      `json:"cached"`
		Queries     []execSum `json:"queries"`   // /replay
		Pipelines   []execSum `json:"pipelines"` // /query
	} `json:"reports"`
}

type execSum struct {
	ID       string `json:"id"`
	Checksum string `json:"checksum"`
}

func (w *execute) setup(*leg) error { return nil }

// selection draws a σ over one int or date column of the benchmark that
// keeps about frac of its rows.
func selection(r *rand.Rand, bench string, frac float64) *advisor.SelectionSpec {
	b, err := schema.BenchmarkByName(bench, 0)
	if err != nil {
		panic(err)
	}
	for {
		t := b.Tables[r.IntN(len(b.Tables))]
		var cols []schema.Column
		for _, c := range t.Columns {
			if c.Kind == schema.KindInt || c.Kind == schema.KindDate {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			continue
		}
		col := cols[r.IntN(len(cols))]
		domain := execRows
		if col.Kind == schema.KindDate {
			domain = storage.DateDomain
		}
		return &advisor.SelectionSpec{Table: t.Name, Column: col.Name, Bound: uint32(frac * float64(domain))}
	}
}

func (w *execute) loop(l *leg, c *client) func() {
	r := rng(l.seed, c.id, 3)
	var recent []execAsk
	// sums holds each (benchmark, seed, σ) execution's per-query checksums,
	// so every later answer to the same question — row or vector mode,
	// /query or /replay, computed or cached — must agree with the first.
	sums := map[string]string{}
	n, k := 0, 0
	return func() {
		var a execAsk
		if n++; n%4 == 0 && len(recent) > 0 {
			a = recent[r.IntN(len(recent))]
		} else {
			// Kinds, benchmarks and σ selectivities cycle rather than being
			// drawn, so every run sends the same mix.
			a = execAsk{kind: k % execKinds, bench: []string{"tpch", "ssb"}[k/execKinds%2], seed: r.Int64()}
			if a.kind == execSelect {
				a.sel = selection(r, a.bench, float64(1+k/(2*execKinds)%4)/5)
			}
			k++
			recent = append(recent, a)
			if len(recent) > 32 {
				recent = recent[1:]
			}
		}
		var resp execReports
		var endpoint, kind string
		var res result
		if a.kind == execReplay {
			endpoint, kind = "/replay", "replay"
			res = c.post(endpoint, advisor.ReplayRequest{Benchmark: a.bench, MaxRows: execRows, Seed: a.seed}, &resp)
		} else {
			endpoint, kind = "/query", "exec"
			mode := "vector"
			if a.kind == execRow {
				mode = "row"
			}
			if l.exact > 0 && a.sel == nil {
				// The exact pass runs every unfiltered query in row mode on
				// its first daemon and in vector mode on its second, so equal
				// digests prove the two modes return identical checksums.
				mode = []string{"row", "vector"}[l.rep%2]
			}
			res = c.post(endpoint, advisor.QueryRequest{Benchmark: a.bench, MaxRows: execRows, Seed: a.seed,
				Exec: mode, Selection: a.sel}, &resp)
		}
		if !c.record(endpoint, res) {
			return
		}
		key := fmt.Sprintf("%s/%d", a.bench, a.seed)
		if a.sel != nil {
			key += fmt.Sprintf("/%s.%s<%d", a.sel.Table, a.sel.Column, a.sel.Bound)
		}
		var all strings.Builder
		allMiss := true
		for _, rep := range resp.Reports {
			if !rep.Exact || rep.MaxAbsDelta != 0 {
				c.checkFailed("%s %s table %s: exact=%v max_abs_delta=%g", endpoint, key, rep.Table, rep.Exact, rep.MaxAbsDelta)
				return
			}
			fmt.Fprintf(&all, "%s:", rep.Table)
			for _, q := range append(rep.Queries, rep.Pipelines...) {
				fmt.Fprintf(&all, "%s=%s,", q.ID, q.Checksum)
			}
			all.WriteString(";")
			allMiss = allMiss && !rep.Cached
		}
		if prev, ok := sums[key]; ok && prev != all.String() {
			c.checkFailed("%s %s: checksums differ from an earlier answer to the same request", endpoint, key)
			return
		}
		sums[key] = all.String()
		for _, rep := range resp.Reports {
			c.cache(kind, rep.Cached)
			fmt.Fprintf(c.digest, "%s:%v;", rep.Table, rep.Cached)
		}
		c.digest.Write([]byte(all.String()))
		if allMiss {
			c.missMS[endpoint] = append(c.missMS[endpoint], res.ms)
		}
	}
}

func (w *execute) finish(*leg) error            { return nil }
func (w *execute) durable(*leg, recovery) error { return nil }

// ---- drift -----------------------------------------------------------------

// drift: each client cycles over its own tables. Per table it sends /observe
// batches from one of two seeded workgen mixes (high or low fragmentation,
// alternating) until the drift report says recomputed, then /migrate with a
// fresh seed. A cycle is one such phase plus its migration.
type drift struct {
	owned   [numClients][]string
	mu      sync.Mutex
	acked   map[string]int64  // observed queries acknowledged, by table
	applied map[string]string // canonical applied layout, by table
}

const (
	driftTables = 4 // tables per client
	// driftBatch fills the tracker's whole observation window, so a phase's
	// first batch prices a window of its own mix only and recomputes there.
	driftBatch = advisor.DefaultDriftWindow
	// driftFlip is the batches after which a phase that has not recomputed
	// switches to the other mix; driftMaxBatches fails the phase.
	driftFlip       = 4
	driftMaxBatches = 16
	migrateRows     = 5_000
)

// driftTable draws a drift table: 14 columns, two of each kind and width
// in a seeded order, so every table has the same row size.
func driftTable(r *rand.Rand, name string) (*schema.Table, error) {
	kinds := []struct {
		kind schema.ColumnKind
		size int
	}{
		{schema.KindInt, 4}, {schema.KindDecimal, 8}, {schema.KindDate, 4},
		{schema.KindChar, 1}, {schema.KindChar, 10}, {schema.KindVarchar, 25}, {schema.KindVarchar, 44},
	}
	cols := make([]schema.Column, 2*len(kinds))
	for i := range cols {
		k := kinds[i%len(kinds)]
		cols[i] = schema.Column{Kind: k.kind, Size: k.size}
	}
	r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	for i := range cols {
		cols[i].Name = fmt.Sprintf("c%02d", i)
	}
	return schema.NewTable(name, 2_000_000, cols)
}

func (w *drift) setup(l *leg) error {
	for c := 0; c < numClients; c++ {
		// The table shapes are the same for every seed; the seed draws the
		// queries and the data. Migration cost follows the shape, and eight
		// shapes per seed would spread the run-to-run figures wider than the
		// benchmark's bounds.
		shapes, r := rng(0, c, 4), rng(l.seed, c, 4)
		for i := 0; i < driftTables; i++ {
			t, err := driftTable(shapes, fmt.Sprintf("drift_c%d_t%d", c, i))
			if err != nil {
				return err
			}
			// Table i registers with the mix its first phase leaves, and
			// first phases alternate between the mixes, so the two kinds of
			// migration alternate too.
			tw, err := workgen.Generate(t, driftMix(t, i+1, r.Int64()))
			if err != nil {
				return err
			}
			var resp advisor.AdviseResponse
			if err := l.boot.post("/advise", adviseBody(tw), &resp).ok("/advise " + t.Name); err != nil {
				return err
			}
			if len(resp.Advice) != 1 {
				return fmt.Errorf("/advise %s answered %d tables", t.Name, len(resp.Advice))
			}
			l.register(t, tw, resp.Advice[0].Layout)
			w.owned[c] = append(w.owned[c], t.Name)
			w.applied[t.Name] = canonical(resp.Advice[0].Layout)
		}
	}
	return nil
}

func (w *drift) loop(l *leg, c *client) func() {
	r := rng(l.seed, c.id, 5)
	tables := w.owned[c.id]
	phase := make([]int, len(tables))
	for i := range phase {
		phase[i] = i % 2
	}
	ti, batches, n := 0, 0, 0
	migrating := false
	next := func() {
		phase[ti]++
		ti = (ti + 1) % len(tables)
		batches, migrating = 0, false
	}
	return func() {
		reg := l.table(tables[ti])
		if migrating {
			var resp advisor.MigrationWire
			res := c.post("/migrate", advisor.MigrateRequest{Table: reg.table.Name, MaxRows: migrateRows, Seed: r.Int64()}, &resp)
			defer next()
			if !c.record("/migrate", res) {
				return
			}
			c.cache("migrate", resp.Cached)
			if resp.Executed {
				c.lat["/migrate:executed"] = append(c.lat["/migrate:executed"], res.ms)
				if !resp.CostExact || !resp.VerifyExact {
					c.checkFailed("/migrate %s: cost_exact=%v verify_exact=%v", reg.table.Name, resp.CostExact, resp.VerifyExact)
					return
				}
			}
			if resp.AppliedUpdated {
				w.mu.Lock()
				w.applied[reg.table.Name] = canonical(resp.ToLayout)
				w.mu.Unlock()
			}
			c.work++
			fmt.Fprintf(c.digest, "migrate %s:%v:%v:%s;", reg.table.Name, resp.Executed, resp.AppliedUpdated, canonical(resp.ToLayout))
			return
		}
		tw, err := workgen.Generate(reg.table, driftMix(reg.table, phase[ti]+batches/driftFlip, r.Int64()))
		if err != nil {
			panic(err)
		}
		req := advisor.ObserveRequest{BatchID: fmt.Sprintf("drift-%d-%d", c.id, n),
			Batches: []advisor.TableObservation{{Table: reg.table.Name, Queries: observed(reg.table, tw.Queries)}}}
		n++
		batches++
		var resp advisor.ObserveResponse
		if !c.record("/observe", c.post("/observe", req, &resp)) {
			return
		}
		if len(resp.Verdicts) != 1 || resp.Verdicts[0].Status != 200 {
			if len(resp.Verdicts) == 1 {
				c.fail(statusClass(resp.Verdicts[0].Status))
			} else {
				c.checkFailed("/observe answered %d verdicts for 1 batch", len(resp.Verdicts))
			}
			return
		}
		v := resp.Verdicts[0]
		w.mu.Lock()
		w.acked[reg.table.Name] += int64(len(tw.Queries))
		w.mu.Unlock()
		fmt.Fprintf(c.digest, "%s:%d:%v;", v.Table, v.Drift.Observed, v.Drift.Recomputed)
		switch {
		case v.Drift.Recomputed:
			migrating = true
		case batches >= driftMaxBatches:
			c.checkFailed("%s: no drift recompute after %d batches", reg.table.Name, batches)
			next()
		}
	}
}

// driftMix is mix p's configuration: even mixes single-column lookups
// spread over the whole table (fragmentation 1), odd mixes wide scans from
// the first column (fragmentation 0). Each mix's best layout prices the
// other's queries well above the O2P shadow, so a phase recomputes once its
// mix fills the window.
func driftMix(t *schema.Table, p int, seed int64) workgen.Config {
	if p%2 == 0 {
		return workgen.Config{Queries: driftBatch, Fragmentation: 1, MeanAttrs: 1, Seed: seed}
	}
	return workgen.Config{Queries: driftBatch, Fragmentation: 0, MeanAttrs: t.NumAttrs(), Seed: seed}
}

func (w *drift) finish(*leg) error { return nil }

func (w *drift) durable(l *leg, rec recovery) error {
	for _, own := range w.owned {
		for _, name := range own {
			ts, ok := rec.tables[name]
			if !ok {
				return fmt.Errorf("drift: table %s not recovered", name)
			}
			if ts.Observed != w.acked[name] {
				return fmt.Errorf("drift: table %s recovered %d observed queries, %d were acknowledged", name, ts.Observed, w.acked[name])
			}
			if got := recoveredLayout(ts); got != w.applied[name] {
				return fmt.Errorf("drift: table %s recovered applied layout %s, the run acknowledged %s", name, got, w.applied[name])
			}
		}
	}
	return nil
}
