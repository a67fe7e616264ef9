package advisor

import (
	"context"
	"fmt"

	"knives/internal/cost"
	"knives/internal/replay"
	"knives/internal/schema"
)

// The exec path answers POST /query: advise the workload (from the
// fingerprint cache), materialize the advised layout, and EXECUTE every
// query as a σ/π/⋈ operator pipeline over an epoch snapshot — returning
// per-operator accounting next to the same zero-tolerance predictions the
// replay path verifies against. Where /replay measures monolithic scans,
// /query decomposes the identical totals into plan operators, and can push
// a selection predicate into the scans.

// ExecSelection names a σ pushed into every pipeline of one table's
// execution: keep rows whose little-endian u32 column (an int or date
// column) is strictly below Bound.
type ExecSelection struct {
	Column string
	Bound  uint32
}

// execKey identifies one cached execution: the replay key plus the
// selection (the predicate changes plans, rows out, and per-query pricing).
type execKey struct {
	replayKey
	sel ExecSelection
}

// ExecTable answers one table's advise-materialize-execute chain under the
// service's default pricing model. The bool reports whether the call
// answered from cache.
func (s *Service) ExecTable(tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection) (*replay.OperatorReplay, Fingerprint, bool, error) {
	return s.execTableAs(context.Background(), tw, opt, sel, s.model, s.modelKey)
}

// execTableAs is ExecTable under an explicit pricing model (a wire
// request's resolved ModelSpec, or the service default).
func (s *Service) execTableAs(ctx context.Context, tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection, m cost.Model, mkey string) (*replay.OperatorReplay, Fingerprint, bool, error) {
	r, err := prepareRun(tw, opt, m, mkey)
	if err != nil {
		return nil, Fingerprint{}, false, err
	}
	var opSel *replay.Selection
	key := execKey{replayKey: r.key()}
	if sel != nil {
		attr := r.tw.Table.AttrIndex(sel.Column)
		if attr < 0 {
			return nil, Fingerprint{}, false, fmt.Errorf("%w: table %s has no column %q",
				ErrBadReplay, r.tw.Table.Name, sel.Column)
		}
		opSel = &replay.Selection{Attr: attr, Bound: sel.Bound}
		key.sel = *sel
	}
	rep, hit, err := s.execs.Get(key, func() (*replay.OperatorReplay, error) {
		layout, algorithm, err := s.advisedLayout(ctx, r)
		if err != nil {
			return nil, err
		}
		rep, err := replay.Operators(r.tw, layout, algorithm, r.cfg, opSel)
		if err != nil {
			return nil, err
		}
		s.tm.recordOpStats(rep.Ops)
		s.tm.recordExec(rep)
		// Per-batch fill ratios feed only the telemetry above. The cached
		// report must not keep them: at batch_size=1 they grow with the
		// row count, one float per batch per query, and the FIFO bounds
		// entries, not bytes.
		rep.FillRatios = nil
		return rep, nil
	})
	return rep, r.fp, hit, err
}
