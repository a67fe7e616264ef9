package main

// endToEnd computes the end-to-end metrics of a driven leg. The names are
// shared by every workload so that each run prints the same set:
//
//	ops_per_s   ingest: acknowledged observed queries/s; advise: /advise
//	            requests/s; execute: /query plus /replay requests/s; drift:
//	            completed observe-phase-plus-/migrate cycles/s
//	latency_ms  client latency of the workload's request: the median of
//	            /observe, /advise, or /query plus /replay; on drift the mean
//	            of /migrate requests that executed a repartition, whose two
//	            kinds (to the lookup layout, to the scan layout) alternate
//	            and differ eightfold, which leaves a median between the modes
//	tail_ms     p90 of the same: a run's p99 rests on its few slowest
//	            requests, which the host's own stalls decide
//	ok_share    1 - error_share: succeeded ÷ attempted requests
//	setup_s     median set-up time (daemon start, WAL open, set-up requests)
//
// peak_rss_mb is added by the caller. Latencies cover every request, failed
// ones included.
func endToEnd(name string, l *leg, setups []float64, m merged) map[string]metric {
	var lat []float64
	units := float64(m.ops)
	switch name {
	case "ingest":
		lat, units = m.lat["/observe"], float64(m.work)
	case "advise":
		lat = m.lat["/advise"]
	case "execute":
		lat = append(append([]float64(nil), m.lat["/query"]...), m.lat["/replay"]...)
	case "drift":
		lat, units = m.lat["/migrate:executed"], float64(m.work)
	}
	central := median(lat)
	if name == "drift" {
		central = ratio(sum(lat), float64(len(lat)))
	}
	return map[string]metric{
		"ops_per_s":  {units / l.elapsed, "1/s"},
		"latency_ms": {central, "ms"},
		"tail_ms":    {percentile(lat, 0.90), "ms"},
		"ok_share":   {1 - ratio(float64(m.failed()), float64(m.ops)), "share"},
		"setup_s":    {median(setups), "s"},
	}
}

// perWorkloadNames renders end-to-end metrics under their per-workload names,
// with the sample counts behind the latencies.
func perWorkloadNames(name string, e map[string]metric, m merged) map[string]any {
	out := map[string]any{
		"setup_s":     e["setup_s"].Value,
		"error_share": 1 - e["ok_share"].Value,
		"peak_rss_mb": e["peak_rss_mb"].Value,
	}
	put := func(rate, central, tail string, lat []float64) {
		out[rate] = e["ops_per_s"].Value
		out[central] = e["latency_ms"].Value
		out[tail] = e["tail_ms"].Value
		out["latency_samples"] = len(lat)
	}
	switch name {
	case "ingest":
		put("observe.obs_per_s", "observe.p50_ms", "observe.p90_ms", m.lat["/observe"])
		out["observe.p99_ms"] = percentile(m.lat["/observe"], 0.99)
	case "advise":
		put("advise.req_per_s", "advise.p50_ms", "advise.p90_ms", m.lat["/advise"])
		out["advise.p99_ms"] = percentile(m.lat["/advise"], 0.99)
	case "execute":
		put("query.req_per_s", "query.p50_ms", "query.p90_ms", append(append([]float64(nil), m.lat["/query"]...), m.lat["/replay"]...))
	case "drift":
		lat := m.lat["/migrate:executed"]
		put("drift.cycles_per_s", "migrate.mean_ms", "migrate.p90_ms", lat)
		out["migrate.p50_ms"] = median(lat)
	}
	return out
}

// postPaths are the daemon's hardened endpoints.
var postPaths = []string{"/advise", "/replay", "/query", "/observe", "/migrate"}

// tracedLeg drives a traced leg and computes the per-layer metrics from its
// spans, the /metrics and /stats deltas around it, and the Go runtime.
func tracedLeg(l *leg, seconds float64, o *outcome) (map[string]metric, merged, error) {
	if err := l.drive(seconds); err != nil {
		l.stop()
		return nil, merged{}, err
	}
	o.finished(l)
	m := l.merge()
	a, b := l.before, l.after
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// HTTP: transport is client round trip minus the server's own request
	// time; admission wait and shedding come from the server.
	var clientS, serverS float64
	var nreq float64
	for _, p := range postPaths {
		clientS += sum(m.lat[p]) / 1e3
		nreq += float64(len(m.lat[p]))
		serverS += histDelta(a, b, `knives_http_request_seconds{path="`+p+`"}`).sum
	}
	transport := clientS - serverS
	adm := histDelta(a, b, "knives_admission_wait_seconds")
	put("advisor.http.transport_ms", ratio(transport, nreq)*1e3, "ms")
	put("advisor.http.admission_wait_ms", adm.meanMS(), "ms")
	put("advisor.http.shed", delta(a, b, "knives_shed_total"), "count")

	// Caches.
	st := func(f func(s scrape) int64) float64 { return float64(f(b) - f(a)) }
	put("advisor.cache.advice_hit_ratio",
		ratio(st(func(s scrape) int64 { return s.stats.Hits }), st(func(s scrape) int64 { return s.stats.Requests })), "ratio")
	put("advisor.cache.exec_hit_ratio", ratio(float64(m.hits["exec"]), float64(m.hits["exec"]+m.misses["exec"])), "ratio")
	put("advisor.cache.replay_hit_ratio",
		ratio(st(func(s scrape) int64 { return s.stats.ReplayHits }), st(func(s scrape) int64 { return s.stats.Replays })), "ratio")
	put("advisor.cache.migrate_hit_ratio",
		ratio(st(func(s scrape) int64 { return s.stats.MigrateHits }), st(func(s scrape) int64 { return s.stats.Migrations })), "ratio")

	// Ingest and drift.
	ingestWait := histDelta(a, b, "knives_ingest_wait_seconds")
	put("advisor.ingest.group_batches", histDelta(a, b, "knives_ingest_group_batches").mean(), "batches")
	put("advisor.ingest.wait_ms", ingestWait.meanMS(), "ms")
	put("advisor.ingest.queue_depth_max", l.depth, "count")
	check := histDelta(a, b, "knives_drift_check_seconds")
	put("advisor.drift.checks", check.count, "count")
	put("advisor.drift.check_ms", check.meanMS(), "ms")
	put("advisor.drift.recomputes", delta(a, b, "knives_recomputes_total"), "count")
	put("advisor.drift.recompute_ms", histDelta(a, b, "knives_drift_recompute_seconds").meanMS(), "ms")

	// Search.
	search := histDelta(a, b, "knives_search_seconds")
	put("algo.searches", delta(a, b, "knives_searches_total"), "count")
	put("algo.search_ms.p50", search.quantile(0.5)*1e3, "ms")
	put("algo.search_ms.p99", search.quantile(0.99)*1e3, "ms")
	put("algo.gate_wait_ms", histDelta(a, b, "knives_gate_wait_seconds").meanMS(), "ms")

	// State store and WAL directory, from the wrappers' spans.
	appends := l.tr.sum("statestore", "append", l.from, l.to)
	snaps := l.tr.sum("vfs", "snapshot", l.from, l.to)
	fsyncs := l.tr.sum("vfs", "fsync", l.from, l.to)
	writes := l.tr.sum("vfs", "write", l.from, l.to)
	observedQ := st(func(s scrape) int64 { return s.stats.ObservedQueries })
	put("statestore.appends", float64(appends.n), "count")
	put("statestore.events_per_append", ratio(float64(appends.events), float64(appends.n)), "events")
	put("statestore.append_ms", appends.meanMS(), "ms")
	put("statestore.snapshots", float64(snaps.n), "count")
	put("statestore.snapshot_ms", snaps.meanMS(), "ms")
	put("vfs.fsyncs", float64(fsyncs.n), "count")
	put("vfs.fsync_ms", fsyncs.meanMS(), "ms")
	put("vfs.bytes_written", float64(writes.bytes), "B")
	put("vfs.bytes_per_obs", ratio(float64(writes.bytes), observedQ), "B")

	// Execution: operators, storage (derived), replay and migration.
	exec := histDelta(a, b, "knives_query_exec_seconds")
	put("operator.exec_ms", exec.meanMS(), "ms")
	for _, op := range []string{"scan", "select", "join", "project"} {
		put("operator.rows."+op, delta(a, b, `knives_operator_rows_total{op="`+op+`"}`), "count")
	}
	put("operator.batch_fill_ratio", histDelta(a, b, "knives_query_batch_fill_ratio").mean(), "ratio")
	// storage.load_ms is the self time of a computed /query: its client time
	// less transport and its queries' pipeline execution time (approximate:
	// the per-execution mean of the exec histogram, summed over the tables
	// of the request, which run concurrently).
	missed := m.missMS["/query"]
	var load float64
	if n := float64(len(missed)); n > 0 {
		execPerReq := ratio(exec.sum, float64(m.misses["exec"])) * ratio(float64(m.hits["exec"]+m.misses["exec"]), float64(len(m.lat["/query"])))
		load = sum(missed)/n - ratio(transport, nreq)*1e3 - execPerReq*1e3
	}
	put("storage.load_ms", load, "ms")
	replayMiss := m.missMS["/replay"]
	put("replay.miss_ms", ratio(sum(replayMiss), float64(len(replayMiss))), "ms")
	migrateExec := histDelta(a, b, "knives_migrate_exec_seconds")
	put("migrate.executed", float64(len(m.lat["/migrate:executed"])), "count")
	put("migrate.exec_ms", migrateExec.meanMS(), "ms")

	// The Go runtime (not a repository module).
	put("process.alloc_bytes_per_req", ratio(float64(b.rt.allocBytes-a.rt.allocBytes), nreq), "B")
	put("process.gc_cycles", float64(b.rt.gcCycles-a.rt.gcCycles), "count")
	put("process.gc_pause_ms", pauseSeconds(a.rt, b.rt)*1e3, "ms")

	for _, class := range failClasses {
		put("errors."+class, float64(m.fails[class]), "count")
	}

	// Coverage: the share of client request time the per-layer numbers
	// account for — transport, admission wait, and the server layer each
	// workload blocks on. The rest is unexplained.
	explained := transport + adm.sum
	switch l.name {
	case "ingest":
		// A request's batches wait in the ingest stage concurrently.
		explained += ingestWait.mean() * float64(len(m.lat["/observe"]))
	case "advise":
		explained += search.sum + histDelta(a, b, "knives_advise_hit_seconds").sum
	case "execute":
		explained += exec.sum
	case "drift":
		explained += ingestWait.mean()*float64(len(m.lat["/observe"])) + migrateExec.sum
	}
	put("trace.coverage_share", ratio(explained, clientS), "share")

	rec, err := l.checkDurable()
	o.check(err)
	put("statestore.recovery_s", rec.seconds, "s")
	put("statestore.recovery_records", float64(rec.records), "count")
	return out, m, nil
}
