package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"knives/internal/advisor"
	"knives/internal/schema"
)

// numClients is the closed-loop client count: one per core of the 2-core
// hosts this benchmark is sized for. Every caller of knivesd (knives
// observe, DBA tooling, a migration controller) waits for each reply before
// sending more, so the load is closed loop.
const numClients = 2

// soloClient lists the workloads driven by a single client. One /advise
// already keeps about a core busy with its portfolio fan-out; a second
// client's searches would compete with it for the host's two cores, and the
// typical request's latency would then follow what the hypervisor leaves
// of them rather than the search.
var soloClient = map[string]bool{"advise": true}

// workload is one seeded traffic mix.
type workload interface {
	// setup sends the workload's own set-up requests, after the daemon has
	// advised TPC-H and SSB.
	setup(l *leg) error
	// loop returns client c's next-operation function. Each call sends one
	// request and checks its answer.
	loop(l *leg, c *client) func()
	// finish runs the end-of-leg checks that need the daemon.
	finish(l *leg) error
	// durable compares what re-opening the WAL recovered with what the leg
	// acknowledged; nil when the workload does not check durability.
	durable(l *leg, rec recovery) error
}

// registered is one table the daemon tracks, as the benchmark registered it.
type registered struct {
	table    *schema.Table
	workload schema.TableWorkload
	layout   [][]string // the layout the registration's advice chose
}

// leg is one daemon's life: set-up, then either the exact pass (a fixed
// number of operations per client) or a timed run.
type leg struct {
	name  string
	seed  int64
	dir   string
	d     *daemon
	boot  *client // set-up, /stats and /metrics; not timed
	tr    *tracer
	exact int // operations per client in the exact pass; 0 = timed
	rep   int // exact pass repetition

	mu     sync.Mutex
	tables map[string]*registered

	w       workload
	clients []*client

	setupS   float64
	from, to time.Time // the driven interval
	elapsed  float64
	before   scrape
	after    scrape
	depth    float64 // highest ingest queue depth seen (traced legs)
}

// newLeg starts a daemon on a fresh WAL directory and runs the set-up: the
// daemon start and WAL open, /advise of TPC-H and SSB (so every workload
// starts from the same tracked tables), then the workload's own set-up
// requests. setupS times all of it, up to the first timed request.
func newLeg(name string, w workload, seed int64, dir string, tr *tracer) (*leg, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// Every set-up starts from a collected heap, so that how much garbage
	// the previous leg left does not decide when a collection lands in it.
	runtime.GC()
	t0 := time.Now()
	d, err := startDaemon(dir, tr)
	if err != nil {
		return nil, err
	}
	l := &leg{name: name, seed: seed, dir: dir, d: d, tr: tr, w: w,
		boot: newClient(-1, d.srv.URL, nil), tables: map[string]*registered{}}
	for _, b := range []string{"tpch", "ssb"} {
		if err := l.adviseBenchmark(b); err != nil {
			l.stop()
			return nil, err
		}
	}
	if err := w.setup(l); err != nil {
		l.stop()
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	l.setupS = time.Since(t0).Seconds()
	return l, nil
}

// adviseBenchmark registers a built-in benchmark's tables. Tables sharing a
// name with an earlier registration (SSB's customer, supplier and part)
// take the name over, as the daemon's trackers do.
func (l *leg) adviseBenchmark(name string) error {
	b, err := schema.BenchmarkByName(name, 0)
	if err != nil {
		return err
	}
	var resp advisor.AdviseResponse
	r := l.boot.post("/advise", advisor.AdviseRequest{Benchmark: name}, &resp)
	if err := r.ok("/advise " + name); err != nil {
		return err
	}
	for _, a := range resp.Advice {
		t := b.Table(a.Table)
		if t == nil {
			return fmt.Errorf("/advise %s answered unknown table %q", name, a.Table)
		}
		l.register(t, b.Workload.ForTable(t), a.Layout)
	}
	return nil
}

func (l *leg) register(t *schema.Table, tw schema.TableWorkload, layout [][]string) {
	l.mu.Lock()
	l.tables[t.Name] = &registered{table: t, workload: tw, layout: layout}
	l.mu.Unlock()
}

func (l *leg) table(name string) *registered {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tables[name]
}

// tableNames returns the registered table names, sorted.
func (l *leg) tableNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.tables))
	for n := range l.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r result) ok(what string) error {
	if r.err != nil {
		return fmt.Errorf("%s: %w", what, r.err)
	}
	if r.status != 200 {
		return fmt.Errorf("%s: status %d", what, r.status)
	}
	return nil
}

// warmup is how long a timed leg's clients run before the timed interval
// starts, by workload. Ingest speeds up by half over its first six seconds
// or so and advise by a tenth; execute and drift run level from the start.
var warmup = map[string]float64{"ingest": 8, "advise": 5, "execute": 2, "drift": 2}

// drive runs the clients: exactly l.exact operations each in the exact
// pass, otherwise a warm-up and then closed loop until seconds have passed.
// It scrapes /metrics and /stats around the timed interval.
func (l *leg) drive(seconds float64) error {
	n := numClients
	if soloClient[l.name] {
		n = 1
	}
	l.clients = make([]*client, n)
	loops := make([]func(), n)
	for i := range l.clients {
		l.clients[i] = newClient(i, l.d.srv.URL, l.tr)
		loops[i] = l.w.loop(l, l.clients[i])
	}
	if l.exact == 0 {
		l.run(loops, warmup[l.name])
		for _, c := range l.clients {
			c.reset()
		}
	}
	var err error
	if l.before, err = l.scrape(); err != nil {
		return err
	}
	stopSampler := l.sampleQueueDepth()
	t0 := time.Now()
	l.run(loops, seconds)
	l.from, l.to = t0, time.Now()
	l.elapsed = l.to.Sub(t0).Seconds()
	stopSampler()
	for _, c := range l.clients {
		c.close()
	}
	l.after, err = l.scrape()
	return err
}

// run runs every client's loop until each has done l.exact operations (in
// the exact pass) or seconds have passed, and waits for them.
func (l *leg) run(loops []func(), seconds float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, next := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if l.exact > 0 && n == l.exact || l.exact == 0 && !time.Now().Before(deadline) {
					return
				}
				next()
			}
		}()
	}
	wg.Wait()
}

// sampleQueueDepth polls the ingest queue-depth gauge during a traced leg
// and keeps its maximum; the returned function stops the poller and waits
// for it.
func (l *leg) sampleQueueDepth() func() {
	if l.tr == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := newClient(-2, l.d.srv.URL, nil)
		defer c.close()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if m, err := c.metrics(); err == nil {
				if v := m["knives_ingest_queue_depth"]; v > l.depth {
					l.depth = v
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}

// stop shuts the daemon down (the service snapshots its WAL on close).
func (l *leg) stop() error {
	l.boot.close()
	return l.d.stop()
}

// checkDurable stops the daemon, re-opens its WAL as a restart would, and
// compares the recovered state with what the leg acknowledged.
func (l *leg) checkDurable() (recovery, error) {
	if err := l.stop(); err != nil {
		return recovery{}, err
	}
	rec, err := reopen(l.dir)
	if err != nil {
		return recovery{}, fmt.Errorf("re-open WAL: %w", err)
	}
	return rec, l.w.durable(l, rec)
}

// merged sums the clients' records.
type merged struct {
	ops, work int64
	fails     map[string]int64
	lat       map[string][]float64
	missMS    map[string][]float64
	hits      map[string]int64
	misses    map[string]int64
	digest    string
}

func (l *leg) merge() merged {
	m := merged{fails: map[string]int64{}, lat: map[string][]float64{}, missMS: map[string][]float64{},
		hits: map[string]int64{}, misses: map[string]int64{}}
	var dg []byte
	for _, c := range l.clients {
		m.ops += c.ops
		m.work += c.work
		for k, v := range c.fails {
			m.fails[k] += v
		}
		for k, v := range c.lat {
			m.lat[k] = append(m.lat[k], v...)
		}
		for k, v := range c.missMS {
			m.missMS[k] = append(m.missMS[k], v...)
		}
		for k, v := range c.hits {
			m.hits[k] += v
		}
		for k, v := range c.misses {
			m.misses[k] += v
		}
		dg = c.digest.Sum(dg)
	}
	m.digest = fmt.Sprintf("%x", dg)
	return m
}

func (m merged) failed() int64 {
	var n int64
	for _, v := range m.fails {
		n += v
	}
	return n
}

func legDir(root, workload string, seed int64, name string) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()), name)
}
