package advisor

import (
	"context"
	"fmt"

	"knives/internal/cost"
	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
)

// Replay limits: the server materializes real pages and scans them, so the
// request must not be able to ask for unbounded work.
const (
	// MaxReplayRows caps how many rows one replay may materialize per table.
	MaxReplayRows = 1_000_000
	// MaxReplayWorkers caps the requested worker pool (the count never
	// changes a reported number, only memory and scheduling).
	MaxReplayWorkers = 256
)

// DefaultReplayCacheCapacity bounds the replay report cache. Reports carry
// per-query measurements and are an order of magnitude bigger than advice
// entries, so the bound is correspondingly smaller.
const DefaultReplayCacheCapacity = 256

// ReplayOptions are the knobs one replay request may turn. The zero value
// uses the service defaults.
type ReplayOptions struct {
	// MaxRows caps the materialized rows per table; 0 uses
	// replay.DefaultMaxRows.
	MaxRows int64
	// Seed feeds the deterministic data generator.
	Seed int64
	// Workers bounds the replay worker pool; 0 uses GOMAXPROCS. Workers
	// never affect the report's numbers, so they are NOT part of the
	// replay cache key.
	Workers int
	// ExecMode selects pipeline execution on the /query path: "" or "row"
	// (the oracle) or "vector". Like Workers, exec knobs change wall-clock
	// and never a result, so none of them join the exec cache key.
	ExecMode string
	// BatchSize is vector mode's rows per batch (0 = default).
	BatchSize int
	// ExecWorkers bounds morsel-parallel leaf scans per pipeline.
	ExecWorkers int
}

// validate enforces the request-side limits.
func (o ReplayOptions) validate() error {
	if o.MaxRows < 0 || o.MaxRows > MaxReplayRows {
		return fmt.Errorf("%w: max_rows %d out of range [0, %d]", ErrBadReplay, o.MaxRows, MaxReplayRows)
	}
	if o.Workers < 0 || o.Workers > MaxReplayWorkers {
		return fmt.Errorf("%w: workers %d out of range [0, %d]", ErrBadReplay, o.Workers, MaxReplayWorkers)
	}
	switch operator.ExecMode(o.ExecMode) {
	case "", operator.ExecRow, operator.ExecVector:
	default:
		return fmt.Errorf("%w: exec mode %q (%s or %s)", ErrBadReplay, o.ExecMode, operator.ExecRow, operator.ExecVector)
	}
	if o.BatchSize < 0 || o.BatchSize > operator.MaxBatchSize {
		return fmt.Errorf("%w: batch_size %d out of range [0, %d]", ErrBadReplay, o.BatchSize, operator.MaxBatchSize)
	}
	if o.ExecWorkers < 0 || o.ExecWorkers > MaxReplayWorkers {
		return fmt.Errorf("%w: exec_workers %d out of range [0, %d]", ErrBadReplay, o.ExecWorkers, MaxReplayWorkers)
	}
	return nil
}

// ErrBadReplay reports replay options the service refuses to execute.
var ErrBadReplay = fmt.Errorf("advisor: invalid replay request")

// replayKey identifies one cached replay report: the workload fingerprint
// (PR-2's cache key, which already covers schema, weights, and query order),
// the canonical key of the device the replay prices and measures on, plus
// the two options that change the materialized data.
type replayKey struct {
	fp    Fingerprint
	model string
	rows  int64
	seed  int64
}

// replayConfigFor translates a pricing model into a replay config: the
// model's full device becomes the config's device (replay.Config treats a
// named Disk with an empty Model as the device itself), so the engine
// materializes, measures, and prices on exactly the hardware the request
// resolved. MaxRows 0 resolves to replay.DefaultMaxRows here, so the cache
// keys carry the row count that actually runs.
func replayConfigFor(m cost.Model, opt ReplayOptions) (replay.Config, error) {
	dm, ok := m.(*cost.DeviceModel)
	if !ok {
		return replay.Config{}, fmt.Errorf("advisor: cost model %s has no replay pricing", m.Name())
	}
	rows := opt.MaxRows
	if rows == 0 {
		rows = replay.DefaultMaxRows
	}
	return replay.Config{
		Disk:        dm.Device(),
		MaxRows:     rows,
		Seed:        opt.Seed,
		Workers:     opt.Workers,
		ExecMode:    opt.ExecMode,
		BatchSize:   opt.BatchSize,
		ExecWorkers: opt.ExecWorkers,
	}, nil
}

// tableRun is one /replay or /query table request after the preamble both
// share: options validated, the replay config resolved on the request's
// device, and query weights normalized.
type tableRun struct {
	tw   schema.TableWorkload
	fp   Fingerprint
	cfg  replay.Config
	m    cost.Model
	mkey string
}

// prepareRun runs the shared preamble of replayTableAs and execTableAs.
func prepareRun(tw schema.TableWorkload, opt ReplayOptions, m cost.Model, mkey string) (tableRun, error) {
	if err := opt.validate(); err != nil {
		return tableRun{}, err
	}
	cfg, err := replayConfigFor(m, opt)
	if err != nil {
		return tableRun{}, err
	}
	if tw.Table == nil {
		return tableRun{}, fmt.Errorf("advisor: nil table")
	}
	tw = normalizeWeights(tw)
	return tableRun{tw: tw, fp: FingerprintOf(tw), cfg: cfg, m: m, mkey: mkey}, nil
}

// key is the run's replay cache key.
func (r tableRun) key() replayKey {
	return replayKey{fp: r.fp, model: r.mkey, rows: r.cfg.MaxRows, seed: r.cfg.Seed}
}

// advisedLayout advises the run's workload (from the fingerprint cache,
// searching on a miss) and rebinds the layout onto THIS request's table:
// cached advice may come from a request whose *Table pointer differs, and
// the fingerprint guarantees identical schemas.
func (s *Service) advisedLayout(ctx context.Context, r tableRun) (partition.Partitioning, string, error) {
	advice, _, _, err := s.adviseTableAs(ctx, r.tw, r.m, r.mkey)
	if err != nil {
		return partition.Partitioning{}, "", err
	}
	layout, err := partition.New(r.tw.Table, advice.Layout.Parts)
	return layout, advice.Algorithm, err
}

// ReplayTable answers one table's advise-materialize-replay-report chain:
// the advice comes from the fingerprint cache (searching on a miss), the
// layout is materialized through the storage engine, the workload replayed,
// and the report compared against the cost model. Reports are cached under
// (fingerprint, rows, seed); the bool reports whether this call executed a
// replay (false = cache hit).
func (s *Service) ReplayTable(tw schema.TableWorkload, opt ReplayOptions) (*replay.TableReplay, Fingerprint, bool, error) {
	return s.replayTableAs(context.Background(), tw, opt, s.model, s.modelKey)
}

// replayTableAs is ReplayTable under an explicit pricing model (a wire
// request's resolved ModelSpec, or the service default). The context
// bounds the embedded advise step's search waits; the materialize-and-scan
// itself runs to completion once started.
func (s *Service) replayTableAs(ctx context.Context, tw schema.TableWorkload, opt ReplayOptions, m cost.Model, mkey string) (*replay.TableReplay, Fingerprint, bool, error) {
	r, err := prepareRun(tw, opt, m, mkey)
	if err != nil {
		return nil, Fingerprint{}, false, err
	}
	rep, hit, err := s.replays.Get(r.key(), func() (*replay.TableReplay, error) {
		layout, algorithm, err := s.advisedLayout(ctx, r)
		if err != nil {
			return nil, err
		}
		return replay.Layout(r.tw, layout, algorithm, r.cfg)
	})
	return rep, r.fp, hit, err
}
