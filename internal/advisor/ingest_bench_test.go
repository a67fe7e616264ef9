package advisor

import (
	"context"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// benchStreamLen is the observed-query stream one benchmark iteration
// pushes through the service: fixed, so obs/sec is meaningful even at
// -benchtime 1x (the repo's baseline-recording convention).
const benchStreamLen = 4096

// benchObserve pushes benchStreamLen observed queries per iteration
// through a durable (on-disk WAL) service and reports the achieved
// observations/sec. batchSize is the queries per Observe call, workers
// the concurrent submitters — so (1, 1) is the per-request baseline (one
// query, one HTTP-equivalent call, one WAL append+fsync, one O(window)
// exact drift check each) and larger shapes exercise the batched,
// sharded, sketch-backed pipeline.
func benchObserve(b *testing.B, mode string, batchSize, workers int, reg *telemetry.Registry) {
	dir := b.TempDir()
	fs, err := vfs.Dir(dir)
	if err != nil {
		b.Fatal(err)
	}
	st, err := statestore.Open(fs, statestore.Options{DriftWindow: 1024, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := OpenService(Config{
		// A threshold no workload reaches: the benchmark measures steady
		// ingest + per-batch drift pricing, not recompute searches.
		DriftThreshold: 100,
		DriftWindow:    1024,
		DriftTracking:  mode,
		Store:          st,
		Telemetry:      reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	tab, err := schema.NewTable("events", 1_000_000, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 100},
		{Name: "b", Kind: schema.KindChar, Size: 100},
		{Name: "c", Kind: schema.KindChar, Size: 100},
		{Name: "d", Kind: schema.KindChar, Size: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := svc.AdviseTable(schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q3", Weight: 1, Attrs: attrset.Of(2, 3)},
	}}); err != nil {
		b.Fatal(err)
	}

	// Pre-build one stream's batches as the column names a client sends:
	// 8 recurring attribute patterns, weights 1..3.
	patterns := [][]string{
		{"a", "b"}, {"c", "d"}, {"a"}, {"b"}, {"c"}, {"d"}, {"a", "c"}, {"b", "d"},
	}
	var batches [][]TableObservation
	for done := 0; done < benchStreamLen; {
		n := batchSize
		if benchStreamLen-done < n {
			n = benchStreamLen - done
		}
		batch := make([]ObservedQry, n)
		for j := range batch {
			id := done + j
			batch[j] = ObservedQry{Attrs: patterns[id%len(patterns)], Weight: float64(1 + id%3)}
		}
		batches = append(batches, []TableObservation{{Table: "events", Queries: batch}})
		done += n
	}

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make(chan []TableObservation, len(batches))
		for _, batch := range batches {
			work <- batch
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := range work {
					outs, _, err := svc.Observe(ctx, "", batch)
					if err == nil {
						err = outs[0].Err
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*benchStreamLen/secs, "obs/sec")
	}
}

// BenchmarkObserveThroughput is the ingest-pipeline headline: per-request
// exact drift tracking (the pre-batching behavior: every observed query
// paid its own WAL fsync and an O(window) exact drift check) against the
// batched sketch pipeline (64 queries per batch, 4 concurrent submitters,
// group-committed WAL appends, sketch drift pricing). The committed
// BENCH_*.json records the obs/sec ratio; the acceptance floor is 10x.
// The Telemetry variant wires a live registry through both the service
// and the state store — exactly how knivesd runs — so the instrumentation
// tax is measured in the same process as the uninstrumented number; the
// acceptance bar is within 5%.
func BenchmarkObserveThroughput(b *testing.B) {
	b.Run("PerRequestExact", func(b *testing.B) { benchObserve(b, TrackExact, 1, 1, nil) })
	b.Run("BatchedSketch", func(b *testing.B) { benchObserve(b, TrackSketch, 64, 4, nil) })
	b.Run("BatchedSketchTelemetry", func(b *testing.B) {
		benchObserve(b, TrackSketch, 64, 4, telemetry.NewRegistry())
	})
}
