// Command knives runs the paper's vertical partitioning algorithms and
// regenerates its evaluation artifacts.
//
// Usage:
//
//	knives list
//	    List the algorithms and the reproducible experiments.
//
//	knives optimize [-benchmark tpch|ssb] [-sf N] [-table NAME|all]
//	                [-algorithm NAME|all] [-model hdd|ssd|mm] [device flags]
//	    Compute layouts and report costs, candidates, and opt time.
//
//	knives advise [-benchmark tpch|ssb] [-sf N]
//	              [-server URL] [-retries N] [-retry-delay D]
//	    Recommend the cheapest layout per table across all heuristics —
//	    locally, or via a running knivesd (-server) with retrying requests
//	    that back off on 429/503 from a daemon under load.
//
//	knives observe -server URL [-benchmark tpch|ssb] [-sf N] [-table NAME|all]
//	               [-rounds N] [-batch N] [-retries N] [-retry-delay D]
//	    Stream the benchmark's workload to a running knivesd as BATCHED
//	    observations — many tables x many queries per POST /observe — and
//	    report each table's drift verdict plus the achieved observations/sec.
//	    Advise the benchmark on the daemon first (knives advise -server ...,
//	    or run knivesd with -prewarm) so the tables are registered.
//
//	knives replay [-benchmark tpch|ssb] [-sf N] [-table NAME|all]
//	              [-algorithm advisor|NAME|Row|Column] [-model hdd|ssd|mm]
//	              [device flags] [-rows N] [-workers N] [-seed N]
//	              [-backend mem|file] [-dir PATH]
//	    Materialize advised layouts through the storage engine, replay the
//	    workload, and verify measured I/O equals the cost model exactly.
//
//	knives exec [-benchmark tpch|ssb] [-sf N] [-table NAME|all]
//	            [-algorithm advisor|NAME|Row|Column] [-model hdd|ssd|mm]
//	            [device flags] [-rows N] [-workers N] [-seed N]
//	            [-select-table NAME -select-column COL [-select-bound N]]
//	            [-server URL] [-retries N] [-retry-delay D]
//	    Run every query as a streaming σ/π/⋈ operator pipeline over an
//	    epoch snapshot of the advised layout, print each plan with its
//	    per-operator accounting, and verify the measured cost equals the
//	    cost model bit for bit. -select-* pushes a σ(column < bound) into
//	    one table's scans. With -server, a running knivesd executes via
//	    POST /query instead.
//
//	knives migrate [-benchmark tpch|ssb] [-sf N] [-table NAME|all]
//	               [-algorithm advisor|NAME] [-model hdd|ssd|mm] [device flags]
//	               [-drift F] [-drift-seed N] [-window N]
//	               [-rows N] [-workers N] [-seed N] [-backend mem|file] [-dir PATH]
//	    Plan and execute the drift-triggered re-layout of each table: the
//	    layout advised for the original workload is materialized, the
//	    workload drifts by fraction F, the layout advised for the drifted
//	    mix becomes the target, and the store is repartitioned in place —
//	    with the measured migration cost checked against the cost model
//	    and the migrated store verified against a fresh materialization,
//	    both at zero tolerance (non-zero exit on any divergence).
//
//	knives experiment ID|all [-reps N]
//	    Regenerate a paper figure/table (fig1..fig14, tab3..tab7).
//
// Every -model flag resolves a device preset (hdd, ssd, mm, plus aliases
// like disk, flash, ram), and the shared device flags override individual
// hardware parameters of that preset: -buffer MB, -block KB, -seek-ms,
// -read-mbps, -write-mbps, -cache-line BYTES, -miss-ns (0 = keep the
// preset's value).
//
// advise, observe, replay, exec, and migrate accept -verbose: a per-step
// timing breakdown (benchmark build, per-table searches, replays, server
// round-trips) printed to stderr, leaving stdout parseable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"knives"
	"knives/internal/advisor"
	"knives/internal/devflag"
	"knives/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches a command line and returns the process exit code: 0 on
// success, 1 on command failure (including unknown experiment IDs, table
// names, algorithms...), 2 on usage errors. It exists so that tests can pin
// exit codes without spawning the binary; the subcommand FlagSets therefore
// use ContinueOnError — ExitOnError would os.Exit from inside fs.Parse and
// bypass this return path.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = runList()
	case "optimize":
		err = runOptimize(args[1:])
	case "advise":
		err = runAdvise(args[1:])
	case "observe":
		err = runObserve(args[1:])
	case "replay":
		err = runReplay(args[1:])
	case "exec":
		err = runExec(args[1:])
	case "migrate":
		err = runMigrate(args[1:])
	case "experiment":
		err = runExperiment(args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "knives: unknown command %q\n", args[0])
		usage()
		return 2
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		// fs.Parse already printed flag errors (with usage); don't repeat.
		if !ue.reported {
			fmt.Fprintf(os.Stderr, "knives: %v\n", err)
		}
		return 2
	default:
		fmt.Fprintf(os.Stderr, "knives: %v\n", err)
		return 1
	}
}

// usageError marks bad command-line input (exit code 2, like the top-level
// dispatcher's own usage failures). reported means the flag package
// already printed the message to stderr.
type usageError struct {
	err      error
	reported bool
}

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// parseFlags runs fs over args, classifying failures: -h propagates
// flag.ErrHelp (exit 0), anything else is a usageError (exit 2) that
// ContinueOnError has already reported to stderr.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err: err, reported: true}
	}
	return nil
}

// vtimer prints a per-step timing breakdown to stderr under -verbose: each
// step reports the time since the previous one, total the whole command.
// Timings go to stderr so piped stdout output stays parseable.
type vtimer struct {
	on          bool
	start, last time.Time
}

func newVTimer(on bool) *vtimer {
	now := time.Now()
	return &vtimer{on: on, start: now, last: now}
}

func (v *vtimer) step(name string) {
	if !v.on {
		return
	}
	now := time.Now()
	fmt.Fprintf(os.Stderr, "timing: %-32s %v\n", name, now.Sub(v.last).Round(10*time.Microsecond))
	v.last = now
}

func (v *vtimer) total() {
	if !v.on {
		return
	}
	fmt.Fprintf(os.Stderr, "timing: %-32s %v\n", "total", time.Since(v.start).Round(10*time.Microsecond))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: knives <command> [flags]

commands:
  list                      list algorithms and experiments
  optimize [flags]          compute layouts for one or all tables
  advise [flags]            recommend the best layout per table
  observe [flags]           stream batched observations to a running knivesd
  replay [flags]            execute advised layouts and verify the cost model
  exec [flags]              run the workload as σ/π/⋈ operator pipelines (optionally via knivesd)
  migrate [flags]           plan + execute a drift-triggered re-layout and verify it
  experiment <id|all>       regenerate a paper figure or table

run "knives <command> -h" for command flags`)
}

func runList() error {
	fmt.Println("algorithms:")
	for _, a := range knives.Algorithms() {
		fmt.Printf("  %s\n", a.Name())
	}
	fmt.Println("\nexperiments:")
	for _, e := range knives.Experiments() {
		fmt.Printf("  %-6s %s\n", e.ID, e.Description)
	}
	return nil
}

// tableFlags is the flag block the table commands share: which tables of
// which benchmark, the layout source, and the cost model with its device
// overrides. addRunFlags adds the flags of the commands that materialize
// and run layouts (replay, exec, migrate); their fields stay nil on
// optimize, and backend/dir stay nil without a page store.
type tableFlags struct {
	benchmark, table, algorithm, model *string
	sf                                 *float64
	device                             func() (knives.Disk, error)

	rows         *int64
	workers      *int
	seed         *int64
	verbose      *bool
	backend, dir *string
}

func addTableFlags(fs *flag.FlagSet, algoDefault, algoHelp string) *tableFlags {
	return &tableFlags{
		benchmark: fs.String("benchmark", "tpch", "benchmark: tpch or ssb"),
		sf:        fs.Float64("sf", 10, "scale factor (0 = default 10)"),
		table:     fs.String("table", "all", "table name or all"),
		algorithm: fs.String("algorithm", algoDefault, algoHelp),
		model:     fs.String("model", "hdd", "cost model: hdd, ssd, or mm"),
		device:    devflag.Register(fs),
	}
}

// layoutSourceHelp is the -algorithm help of replay and exec.
const layoutSourceHelp = "layout source: an algorithm name, Row, Column, or advisor (portfolio winner)"

func (f *tableFlags) addRunFlags(fs *flag.FlagSet, store bool) {
	f.rows = fs.Int64("rows", 0, "max rows materialized per table (0 = default)")
	f.workers = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never changes the numbers")
	f.seed = fs.Int64("seed", 1, "data generator seed")
	f.verbose = fs.Bool("verbose", false, "print a per-step timing breakdown to stderr")
	if store {
		f.backend = fs.String("backend", "mem", "partition page store: mem or file")
		f.dir = fs.String("dir", "", "directory for -backend file (default: a fresh temp dir)")
	}
}

// checkRows rejects a negative -rows before any portfolio search runs.
func (f *tableFlags) checkRows() error {
	if f.rows != nil && *f.rows < 0 {
		return usageError{err: fmt.Errorf("-rows %d must be non-negative", *f.rows)}
	}
	return nil
}

// resolve builds the benchmark, checks -rows, runs the command's own usage
// check (nil for none), and resolves the device-overridden cost model — in
// that order, which fixes the error a bad command line reports first.
func (f *tableFlags) resolve(check func() error) (*knives.Benchmark, knives.Disk, knives.CostModel, error) {
	var override knives.Disk
	bench, err := knives.BenchmarkByName(*f.benchmark, *f.sf)
	if err != nil {
		return nil, override, nil, err
	}
	if err := f.checkRows(); err != nil {
		return nil, override, nil, err
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, override, nil, err
		}
	}
	if override, err = f.device(); err != nil {
		return nil, override, nil, usageError{err: err}
	}
	model, err := knives.CostModelByName(*f.model, override)
	return bench, override, model, err
}

// storeDir returns the directory of the page store: -dir, or for
// -backend file without one a fresh temp dir that cleanup removes.
func (f *tableFlags) storeDir(prefix string) (dir string, cleanup func(), err error) {
	if *f.backend != "file" || *f.dir != "" {
		return *f.dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", prefix)
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// errExecDiverged is the failure of replay and exec when any measured cost
// differs from the cost model's prediction.
var errExecDiverged = errors.New("measured execution diverged from the cost model (see deltas above)")

// eachTable runs fn on every table -table selects, in benchmark order. It
// returns fn's first error, fails when no table matches, and — after every
// table ran — returns diverged if any fn reported an inexact result.
func (f *tableFlags) eachTable(bench *knives.Benchmark, diverged error, fn func(tw knives.TableWorkload) (exact bool, err error)) error {
	matched, allExact := false, true
	for _, tw := range bench.TableWorkloads() {
		if *f.table != "all" && tw.Table.Name != *f.table {
			continue
		}
		matched = true
		exact, err := fn(tw)
		if err != nil {
			return err
		}
		allExact = allExact && exact
	}
	if !matched {
		return fmt.Errorf("benchmark %s has no table %q", bench.Name, *f.table)
	}
	if !allExact {
		return diverged
	}
	return nil
}

func runOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	f := addTableFlags(fs, "all", "algorithm name or all")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	bench, _, model, err := f.resolve(nil)
	if err != nil {
		return err
	}

	var algos []knives.Algorithm
	if *f.algorithm == "all" {
		algos = knives.Algorithms()
	} else {
		a, err := knives.AlgorithmByName(*f.algorithm)
		if err != nil {
			return err
		}
		algos = []knives.Algorithm{a}
	}
	return f.eachTable(bench, nil, func(tw knives.TableWorkload) (bool, error) {
		optimizeTable(os.Stdout, tw, model, algos)
		return true, nil
	})
}

// optimizeTable prints one table's Row and Column baselines and every
// algorithm's layout, or the error an algorithm failed with (such as a
// workload wider than its enumeration cap).
func optimizeTable(w io.Writer, tw knives.TableWorkload, model knives.CostModel, algos []knives.Algorithm) {
	fmt.Fprintf(w, "table %s (%d rows, %d attrs, %d queries)\n",
		tw.Table.Name, tw.Table.Rows, tw.Table.NumAttrs(), len(tw.Queries))
	rowC := knives.WorkloadCost(model, tw, knives.RowLayout(tw.Table))
	colC := knives.WorkloadCost(model, tw, knives.ColumnLayout(tw.Table))
	fmt.Fprintf(w, "  %-10s cost=%12.4f\n", "Row", rowC)
	fmt.Fprintf(w, "  %-10s cost=%12.4f\n", "Column", colC)
	for _, a := range algos {
		res, err := a.Partition(tw, model)
		if err != nil {
			fmt.Fprintf(w, "  %-10s error: %v\n", a.Name(), err)
			continue
		}
		fmt.Fprintf(w, "  %-10s cost=%12.4f  candidates=%-9d opt=%v\n    %s\n",
			a.Name(), res.Cost, res.Stats.Candidates, res.Stats.Duration, res.Partitioning)
	}
	fmt.Fprintln(w)
}

func runAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	benchName := fs.String("benchmark", "tpch", "benchmark: tpch or ssb")
	sf := fs.Float64("sf", 10, "scale factor (0 = default 10)")
	server := fs.String("server", "", "ask a running knivesd at this base URL instead of searching locally")
	retries := fs.Int("retries", 3, "total attempts per request in -server mode (429/503/transport errors retry)")
	retryDelay := fs.Duration("retry-delay", 100*time.Millisecond, "base backoff between -server retries (doubles per attempt)")
	verbose := fs.Bool("verbose", false, "print a per-step timing breakdown to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	vt := newVTimer(*verbose)
	defer vt.total()
	if *server != "" {
		if *retries < 1 {
			return usageError{err: fmt.Errorf("-retries must be >= 1 (got %d)", *retries)}
		}
		err := adviseViaServer(*server, *benchName, *sf, *retries, *retryDelay)
		vt.step("advise via server")
		return err
	}
	bench, err := knives.BenchmarkByName(*benchName, *sf)
	if err != nil {
		return err
	}
	vt.step("build benchmark")
	advice, err := knives.Advise(bench, knives.NewHDDModel(knives.DefaultDisk()))
	if err != nil {
		return err
	}
	vt.step("portfolio search")
	for _, a := range advice {
		fmt.Printf("%-10s use %-9s cost=%10.3f  vs row %+.1f%%  vs column %+.1f%%\n",
			a.Table.Name, a.Algorithm, a.Cost,
			a.ImprovementOverRow()*100, a.ImprovementOverColumn()*100)
		fmt.Printf("           %s\n", a.Layout)
	}
	return nil
}

// adviseViaServer asks a running knivesd for the benchmark's advice instead
// of searching locally — the daemon's fingerprint cache answers a prewarmed
// benchmark without a single search, and the retry policy rides out 429
// shedding and 503 deadlines from a daemon under load.
func adviseViaServer(baseURL, benchName string, sf float64, retries int, retryDelay time.Duration) error {
	client := advisor.NewClient(baseURL)
	client.Retry = advisor.RetryPolicy{MaxAttempts: retries, BaseDelay: retryDelay}
	resp, err := client.Advise(context.Background(), advisor.AdviseRequest{Benchmark: benchName, ScaleFactor: sf})
	if err != nil {
		return err
	}
	for _, a := range resp.Advice {
		from := "searched"
		if a.Cached {
			from = "cached"
		}
		fmt.Printf("%-10s use %-9s cost=%10.3f  vs row %+.1f%%  vs column %+.1f%%  (%s)\n",
			a.Table, a.Algorithm, a.Cost,
			a.ImprovementOverRow*100, a.ImprovementOverColumn*100, from)
		fmt.Printf("           %v\n", a.Layout)
	}
	return nil
}

// runObserve streams a benchmark's workload to a running knivesd as batched
// observations: queries accumulate in an ObserveBuffer and ship as one
// multi-table POST /observe per -batch queries, exercising the daemon's
// sharded group-committing ingest stage instead of one request per query.
func runObserve(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ContinueOnError)
	server := fs.String("server", "", "base URL of a running knivesd (required)")
	benchName := fs.String("benchmark", "tpch", "benchmark: tpch or ssb")
	sf := fs.Float64("sf", 10, "scale factor (0 = default 10)")
	table := fs.String("table", "all", "table name or all")
	rounds := fs.Int("rounds", 1, "times the workload is streamed")
	batch := fs.Int("batch", advisor.DefaultObserveFlushAt, "queries per batched /observe request")
	retries := fs.Int("retries", 3, "total attempts per request (429/503/transport errors retry)")
	retryDelay := fs.Duration("retry-delay", 100*time.Millisecond, "base backoff between retries (doubles per attempt)")
	verbose := fs.Bool("verbose", false, "print a per-step timing breakdown to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *server == "" {
		return usageError{err: fmt.Errorf("observe needs -server URL (a running knivesd; advise the benchmark there first)")}
	}
	if *rounds < 1 {
		return usageError{err: fmt.Errorf("-rounds must be >= 1 (got %d)", *rounds)}
	}
	if *batch < 1 {
		return usageError{err: fmt.Errorf("-batch must be >= 1 (got %d)", *batch)}
	}
	bench, err := knives.BenchmarkByName(*benchName, *sf)
	if err != nil {
		return err
	}
	vt := newVTimer(*verbose)
	defer vt.total()
	vt.step("build benchmark")
	client := advisor.NewClient(*server)
	client.Retry = advisor.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryDelay}
	buf := &advisor.ObserveBuffer{Client: client, FlushAt: *batch}

	ctx := context.Background()
	last := make(map[string]advisor.TableObserveVerdict)
	collect := func(vs []advisor.TableObserveVerdict) error {
		for _, v := range vs {
			if v.Error != "" {
				return fmt.Errorf("observe %s: %s (status %d)", v.Table, v.Error, v.Status)
			}
			last[v.Table] = v
		}
		return nil
	}
	matched := false
	total := 0
	start := time.Now()
	for r := 0; r < *rounds; r++ {
		for _, tw := range bench.TableWorkloads() {
			if *table != "all" && tw.Table.Name != *table {
				continue
			}
			matched = true
			for _, q := range tw.Queries {
				vs, err := buf.Add(ctx, tw.Table.Name, advisor.ObservedQry{
					Attrs:  tw.Table.AttrNames(q.Attrs),
					Weight: q.Weight,
				})
				if err != nil {
					return err
				}
				total++
				if err := collect(vs); err != nil {
					return err
				}
			}
		}
	}
	if !matched {
		return fmt.Errorf("benchmark %s has no table %q", bench.Name, *table)
	}
	vt.step("stream observations")
	vs, err := buf.Flush(ctx)
	if err != nil {
		return err
	}
	if err := collect(vs); err != nil {
		return err
	}
	vt.step("final flush")
	elapsed := time.Since(start)

	names := make([]string, 0, len(last))
	for n := range last {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := last[n]
		state := "stable"
		if v.Drift.Drifted {
			state = "drifted"
		}
		if v.Drift.Recomputed {
			state = "recomputed"
		}
		fmt.Printf("%-10s %-10s ratio=%7.3f threshold=%.3f observed=%d recomputes=%d\n",
			n, state, v.Drift.Ratio, v.Drift.Threshold, v.Drift.Observed, v.Drift.Recomputes)
	}
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Printf("observed %d queries in %v (%.0f obs/sec)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/secs)
	return nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	f := addTableFlags(fs, "advisor", layoutSourceHelp)
	f.addRunFlags(fs, true)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	vt := newVTimer(*f.verbose)
	defer vt.total()

	bench, override, model, err := f.resolve(nil)
	if err != nil {
		return err
	}
	dir, cleanup, err := f.storeDir("knives-replay-")
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := knives.ReplayConfig{
		Model:   *f.model,
		Disk:    override,
		MaxRows: *f.rows,
		Workers: *f.workers,
		Seed:    *f.seed,
		Backend: *f.backend,
		Dir:     dir,
	}

	// The advisor path replays each table's portfolio winner; a named
	// algorithm (or Row/Column) replays that layout family everywhere.
	// Advice is computed per matched table, so -table never searches the
	// rest of the benchmark.
	advisorMode := strings.EqualFold(*f.algorithm, "advisor")
	return f.eachTable(bench, errExecDiverged, func(tw knives.TableWorkload) (bool, error) {
		var rep *knives.TableReplay
		var err error
		if advisorMode {
			advice, err := knives.AdviseTable(tw, model)
			if err != nil {
				return false, err
			}
			vt.step("advise " + tw.Table.Name)
			if rep, err = knives.ReplayAdvice(tw, advice, cfg); err != nil {
				return false, err
			}
		} else if rep, err = knives.ReplayAlgorithm(tw, *f.algorithm, cfg); err != nil {
			return false, err
		}
		vt.step("replay " + tw.Table.Name)
		fmt.Print(rep)
		fmt.Println()
		return rep.Exact(), nil
	})
}

// runExec runs the workload as streaming σ/π/⋈ operator pipelines over
// epoch snapshots — locally, or via a running knivesd's POST /query — and
// verifies the per-operator-decomposed measured cost equals the cost model
// bit for bit.
func runExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ContinueOnError)
	f := addTableFlags(fs, "advisor", layoutSourceHelp)
	f.addRunFlags(fs, false)
	execMode := fs.String("exec", "row", "pipeline execution mode: row (oracle) or vector (batch-at-a-time); never changes the numbers")
	batch := fs.Int("batch", 0, "vector-mode rows per batch (0 = default)")
	execWorkers := fs.Int("exec-workers", 0, "vector-mode morsel-parallel leaf scans per pipeline (<= 1 = synchronous)")
	selTable := fs.String("select-table", "", "table whose pipelines gain a pushed-down selection")
	selColumn := fs.String("select-column", "", "u32 column (int or date) the selection filters on")
	selBound := fs.Uint64("select-bound", 0, "keep rows with column value strictly below this bound")
	server := fs.String("server", "", "execute via a running knivesd at this base URL (POST /query)")
	retries := fs.Int("retries", 3, "total attempts per request in -server mode (429/503/transport errors retry)")
	retryDelay := fs.Duration("retry-delay", 100*time.Millisecond, "base backoff between -server retries (doubles per attempt)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	vt := newVTimer(*f.verbose)
	defer vt.total()
	if err := f.checkRows(); err != nil {
		return err
	}
	if (*selTable == "") != (*selColumn == "") {
		return usageError{err: fmt.Errorf("-select-table and -select-column go together")}
	}
	if *selBound > 1<<32-1 {
		return usageError{err: fmt.Errorf("-select-bound %d exceeds uint32", *selBound)}
	}

	if *server != "" {
		if *retries < 1 {
			return usageError{err: fmt.Errorf("-retries must be >= 1 (got %d)", *retries)}
		}
		client := advisor.NewClient(*server)
		client.Retry = advisor.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryDelay}
		req := advisor.QueryRequest{
			Benchmark:   *f.benchmark,
			ScaleFactor: *f.sf,
			MaxRows:     *f.rows,
			Seed:        *f.seed,
			Workers:     *f.workers,
			Exec:        *execMode,
			BatchSize:   *batch,
			ExecWorkers: *execWorkers,
			Model:       &advisor.ModelSpec{Name: *f.model},
		}
		if *selTable != "" {
			req.Selection = &advisor.SelectionSpec{Table: *selTable, Column: *selColumn, Bound: uint32(*selBound)}
		}
		resp, err := client.Query(context.Background(), req)
		if err != nil {
			return err
		}
		vt.step("query via server")
		allExact := true
		for _, rep := range resp.Reports {
			if *f.table != "all" && rep.Table != *f.table {
				continue
			}
			from := "executed"
			if rep.Cached {
				from = "cached"
			}
			fmt.Printf("exec %s: algorithm=%s model=%s rows=%d/%d (%s)\n",
				rep.Table, rep.Algorithm, rep.Model, rep.RowsReplayed, rep.RowsFull, from)
			if rep.Selection != "" {
				fmt.Printf("  selection: %s\n", rep.Selection)
			}
			for _, p := range rep.Pipelines {
				fmt.Printf("  %-8s %s -> %d rows  measured=%.6e predicted=%.6e\n",
					p.ID, p.Plan, p.ResultRows, p.MeasuredSeconds, p.PredictedSeconds)
			}
			fmt.Printf("  total: measured=%.9e predicted=%.9e exact=%v\n",
				rep.MeasuredSeconds, rep.PredictedSeconds, rep.Exact)
			fmt.Println()
			allExact = allExact && rep.Exact
		}
		if !allExact {
			return errExecDiverged
		}
		return nil
	}

	bench, override, model, err := f.resolve(nil)
	if err != nil {
		return err
	}
	cfg := knives.ReplayConfig{
		Model:       *f.model,
		Disk:        override,
		MaxRows:     *f.rows,
		Workers:     *f.workers,
		Seed:        *f.seed,
		ExecMode:    *execMode,
		BatchSize:   *batch,
		ExecWorkers: *execWorkers,
	}

	advisorMode := strings.EqualFold(*f.algorithm, "advisor")
	return f.eachTable(bench, errExecDiverged, func(tw knives.TableWorkload) (bool, error) {
		var sel *knives.Selection
		if *selTable == tw.Table.Name && *selTable != "" {
			attr := tw.Table.AttrIndex(*selColumn)
			if attr < 0 {
				return false, fmt.Errorf("table %s has no column %q", tw.Table.Name, *selColumn)
			}
			sel = &knives.Selection{Attr: attr, Bound: uint32(*selBound)}
		}
		var rep *knives.OperatorReplay
		var err error
		if advisorMode {
			advice, err := knives.AdviseTable(tw, model)
			if err != nil {
				return false, err
			}
			vt.step("advise " + tw.Table.Name)
			if rep, err = knives.ExecuteAdvice(tw, advice, cfg, sel); err != nil {
				return false, err
			}
		} else if rep, err = knives.ExecuteAlgorithm(tw, *f.algorithm, cfg, sel); err != nil {
			return false, err
		}
		vt.step("execute " + tw.Table.Name)
		fmt.Print(rep)
		fmt.Println()
		return rep.Exact(), nil
	})
}

func runMigrate(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ContinueOnError)
	f := addTableFlags(fs, "advisor",
		"layout source for both endpoints: an algorithm name or advisor (portfolio winner)")
	f.addRunFlags(fs, true)
	drift := fs.Float64("drift", 0.5, "fraction of the workload replaced by perturbed queries")
	driftSeed := fs.Int64("drift-seed", 42, "seed for the deterministic workload drift")
	window := fs.Int64("window", 0, "break-even horizon bound in queries (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	vt := newVTimer(*f.verbose)
	defer vt.total()

	bench, override, model, err := f.resolve(func() error {
		if *drift < 0 || *drift > 1 {
			return usageError{err: fmt.Errorf("-drift %v outside [0, 1]", *drift)}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dir, cleanup, err := f.storeDir("knives-migrate-")
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := knives.MigrationConfig{
		Model:   *f.model,
		Disk:    override,
		MaxRows: *f.rows,
		Workers: *f.workers,
		Seed:    *f.seed,
		Backend: *f.backend,
		Dir:     dir,
	}
	// Validate the execution config before any portfolio search runs: an
	// unknown backend must fail fast, not after minutes of optimization
	// (and not never, when every table's plan happens to be an identity).
	if _, _, err := cfg.Normalized(); err != nil {
		return err
	}

	// Per table: the FROM layout is what the source advises for the
	// original workload, the TO layout what it advises after the workload
	// drifts. The advisor path races the portfolio; a named algorithm uses
	// that algorithm on both endpoints.
	layoutFor := func(tw knives.TableWorkload) (knives.Partitioning, string, error) {
		if strings.EqualFold(*f.algorithm, "advisor") {
			advice, err := knives.AdviseTable(tw, model)
			if err != nil {
				return knives.Partitioning{}, "", err
			}
			return advice.Layout, advice.Algorithm, nil
		}
		a, err := knives.AlgorithmByName(*f.algorithm)
		if err != nil {
			return knives.Partitioning{}, "", err
		}
		res, err := a.Partition(tw, model)
		if err != nil {
			return knives.Partitioning{}, "", err
		}
		return res.Partitioning, a.Name(), nil
	}

	diverged := errors.New("migration diverged: measured cost != predicted, or the migrated store failed verification (see above)")
	return f.eachTable(bench, diverged, func(tw knives.TableWorkload) (bool, error) {
		drifted := knives.DriftWorkload(tw, *drift, *driftSeed)
		from, fromAlgo, err := layoutFor(tw)
		if err != nil {
			return false, err
		}
		to, toAlgo, err := layoutFor(drifted)
		if err != nil {
			return false, err
		}
		vt.step("advise endpoints " + tw.Table.Name)
		plan, err := knives.MigratePlan(drifted, from, to, model, *window)
		if err != nil {
			return false, err
		}
		plan.FromAlgorithm, plan.ToAlgorithm = fromAlgo, toAlgo
		if plan.From.Equal(plan.To) {
			fmt.Print(plan)
			fmt.Println()
			return true, nil
		}
		rep, err := knives.MigrateExecute(drifted, plan, cfg)
		if err != nil {
			return false, err
		}
		vt.step("migrate " + tw.Table.Name)
		fmt.Print(rep)
		fmt.Println()
		return rep.Exact(), nil
	})
}

func runExperiment(args []string) error {
	if len(args) < 1 {
		return usageError{err: fmt.Errorf("experiment needs an id (or all); run \"knives list\"")}
	}
	id := args[0]
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	reps := fs.Int("reps", 3, "repetitions for timing experiments")
	extras := func() []string { return fs.Args() }
	if strings.HasPrefix(id, "-") {
		// Flags first: let the FlagSet handle them so -h prints this
		// subcommand's help (exit 0), and accept an id after the flags
		// ("experiment -reps 5 fig1").
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		if id = fs.Arg(0); id == "" {
			return usageError{err: fmt.Errorf("experiment needs an id (or all); run \"knives list\"")}
		}
		extras = func() []string { return fs.Args()[1:] } // Arg(0) is the id
	} else if err := parseFlags(fs, args[1:]); err != nil {
		return err
	}
	// Unconsumed trailing arguments are a typo, not something to drop
	// silently ("experiment tab4 junk" must not report success).
	if rest := extras(); len(rest) > 0 {
		return usageError{err: fmt.Errorf("experiment takes one id; extra arguments %v", rest)}
	}
	suite := experiments.NewSuite()
	suite.Reps = *reps

	run := func(e knives.Experiment) error {
		rep, err := e.Run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(rep)
		return nil
	}
	if id == "all" {
		for _, e := range experiments.All() {
			if err := run(e); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	return run(e)
}
