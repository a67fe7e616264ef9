// Command knivesbench is the end-to-end benchmark of knivesd. It starts an
// in-process daemon (advisor.OpenService plus advisor.NewServerWith on a
// WAL in a temporary directory, served over loopback HTTP) with the README's
// production settings, drives one of four seeded workloads against it from
// two closed-loop clients, checks every answer, and prints the metrics.
//
// BENCHMARK.json lists advise, execute and drift. Ingest stays runnable by
// hand: its throughput follows the WAL's fsync latency and the goroutine
// wake-ups between client, ingest shards and group commit, and on a shared
// 2-vCPU host those moved it by a quarter between runs of the same seed.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash knivesbench/run.sh --workload ingest|advise|execute|drift \
//	    --seed N --seconds S --trace 0|1
//
// One run sets the daemon up 31 times, 16 times before the timed run and 15
// times after it; setup_s is the median. The first two set-ups each run the
// exact pass — a fixed number of operations per client — whose counts and
// response digest must be identical; the 16th runs a warm-up and then the
// timed closed loop. With --trace 0 the last line of standard output is a
// JSON object with the end-to-end metrics. With --trace 1 the run then sets
// up one more, traced daemon (statestore and vfs wrappers, client spans,
// /metrics and /stats deltas), runs the same workload on it, and the last
// line carries the per-layer metrics, including trace coverage and tracing
// overhead. The line before it is a report with the host fingerprint, the
// host's steal share over the timed run, the metrics under their
// per-workload names, the failure breakdown and the exact-pass summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// setupReps is how many times one run sets the daemon up before the timed
// run, that one included, and setupAfter how many times after it; setup_s
// is the median of them all. Setting up on both sides of the timed run
// samples the host at two moments.
const (
	setupReps  = 16
	setupAfter = 15
)

// exactOps is the exact pass's operation count per client and workload.
var exactOps = map[string]int{"ingest": 16, "advise": 40, "execute": 6, "drift": 4}

func main() {
	workload := flag.String("workload", "", "workload: ingest, advise, execute or drift")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "knivesbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*workload); err != nil {
		fmt.Fprintln(os.Stderr, "knivesbench:", err)
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "knivesbench:", err)
		os.Exit(1)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// exactSummary is what the exact pass must repeat bit for bit.
type exactSummary struct {
	Ops             int64            `json:"ops"`
	Failures        map[string]int64 `json:"failures"`
	CacheHits       map[string]int64 `json:"cache_hits"`
	CacheMisses     map[string]int64 `json:"cache_misses"`
	Searches        int64            `json:"algo.searches"`
	Recomputes      int64            `json:"advisor.drift.recomputes"`
	MigrateExecuted int64            `json:"migrate.executed"`
	Digest          string           `json:"digest"`
}

func summarize(l *leg) exactSummary {
	m := l.merge()
	return exactSummary{
		Ops:             m.ops,
		Failures:        m.fails,
		CacheHits:       m.hits,
		CacheMisses:     m.misses,
		Searches:        l.after.stats.Searches - l.before.stats.Searches,
		Recomputes:      l.after.stats.Recomputes - l.before.stats.Recomputes,
		MigrateExecuted: int64(len(m.lat["/migrate:executed"])),
		Digest:          m.digest,
	}
}

// outcome collects a run's verdict.
type outcome struct {
	problems []string
}

func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// finished books a driven leg's end-of-leg checks and failed output checks.
func (o *outcome) finished(l *leg) {
	o.check(l.w.finish(l))
	for _, c := range l.clients {
		o.problems = append(o.problems, c.checkErr...)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	base := filepath.Join(".bench_build", "knivesbench")
	root := filepath.Join(base, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(root)
	var o outcome

	// Set-ups: the first two run the exact pass, the last the timed run.
	var setups []float64
	var exacts []exactSummary
	var timed *leg
	for i := 0; i < setupReps; i++ {
		w, _ := newWorkload(name)
		l, err := newLeg(name, w, seed, filepath.Join(root, fmt.Sprintf("leg%d", i)), nil)
		if err != nil {
			return err
		}
		setups = append(setups, l.setupS)
		if i == setupReps-1 {
			timed = l
			break
		}
		if i < 2 {
			l.exact, l.rep = exactOps[name], i
			if err := l.drive(0); err != nil {
				l.stop()
				return err
			}
			o.finished(l)
			exacts = append(exacts, summarize(l))
		}
		if err := l.stop(); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(exacts[0], exacts[1]) {
		o.problems = append(o.problems, fmt.Sprintf("exact pass differs between two daemons: %+v vs %+v", exacts[0], exacts[1]))
	}

	// The timed, untraced leg: every end-to-end number comes from it.
	untraced, rec, err := timedLeg(timed, seconds, &o)
	if err != nil {
		return err
	}
	for i := 0; i < setupAfter; i++ {
		w, _ := newWorkload(name)
		l, err := newLeg(name, w, seed, filepath.Join(root, fmt.Sprintf("after%d", i)), nil)
		if err != nil {
			return err
		}
		setups = append(setups, l.setupS)
		if err := l.stop(); err != nil {
			return err
		}
	}
	e2e := endToEnd(name, timed, setups, untraced)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e2e["peak_rss_mb"] = metric{rss, "MB"}

	report := map[string]any{
		"workload": name, "seed": seed, "trace": traced, "host": fingerprint(seconds),
		"metrics": perWorkloadNames(name, e2e, untraced), "failures": untraced.fails,
		"error_share": 1 - e2e["ok_share"].Value,
		"attempted":   untraced.ops, "exact": exacts[0], "setup_s_each": setups,
		"steal_share": stealShare(timed.before.host, timed.after.host),
		"recovery":    map[string]float64{"seconds": rec.seconds, "records": float64(rec.records)},
	}
	last := map[string]any{"attempted": untraced.ops, "failed": untraced.failed(), "metrics": e2e}

	if traced {
		w, _ := newWorkload(name)
		tr := newTracer()
		l, err := newLeg(name, w, seed, filepath.Join(root, "traced"), tr)
		if err != nil {
			return err
		}
		layers, m, err := tracedLeg(l, seconds, &o)
		if err != nil {
			return err
		}
		tracedE2E := endToEnd(name, l, []float64{l.setupS}, m)
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
		tracedE2E["peak_rss_mb"] = metric{rss, "MB"}
		for k, v := range e2e {
			layers["trace.overhead."+k] = metric{tracedE2E[k].Value - v.Value, v.Unit}
		}
		dir := filepath.Join(base, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		spans := filepath.Join(dir, name+".jsonl")
		if err := tr.write(spans); err != nil {
			return err
		}
		report["traced"] = map[string]any{"metrics": perWorkloadNames(name, tracedE2E, m), "failures": m.fails, "spans": spans}
		last = map[string]any{"attempted": m.ops, "failed": m.failed(), "metrics": layers}
	}

	report["problems"] = o.problems
	last["correct"] = len(o.problems) == 0
	for _, v := range []any{report, last} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// timedLeg runs a set-up leg for seconds, checks it, and re-opens its WAL.
func timedLeg(l *leg, seconds float64, o *outcome) (merged, recovery, error) {
	if err := l.drive(seconds); err != nil {
		l.stop()
		return merged{}, recovery{}, err
	}
	o.finished(l)
	m := l.merge()
	rec, err := l.checkDurable()
	o.check(err)
	return m, rec, nil
}
