package advisor

import (
	"context"
	"fmt"
)

// Batched observes retry on lost responses, which makes delivery
// at-least-once on the wire: the server journals and applies a batch
// BEFORE answering, so a response lost in transit used to re-ingest the
// whole batch on retry and double-count every query in it. The dedup
// window closes that hole: clients stamp each logical batch with an ID,
// and a replayed ID answers the original ingest's outcomes — including
// per-entry failures, which a client's whole-request retry could not
// meaningfully re-drive anyway — without touching the trackers.

// DefaultObserveDedupWindow bounds how many recently applied batch IDs
// the service remembers. FIFO, like the other caches: a replay older than
// the window re-ingests (the pre-dedup behavior), so the window only needs
// to outlive a client's retry schedule, not its lifetime.
const DefaultObserveDedupWindow = 1024

// maxBatchIDLen caps the accepted batch ID length: the window stores IDs
// verbatim, so an unbounded ID would be an unbounded memory lever.
const maxBatchIDLen = 128

// Observe is the service's one observation entry: every wire shape and
// every Go caller feeds observed queries to the drift trackers through it.
// Each entry of batches is one table's slice; outcome i answers
// batches[i], and entries fail independently (see ingestBatches). When a
// table's advised layout has drifted past the threshold, its advice is
// recomputed from the observed log, the tracker updated, and the fresh
// advice cached under the observed workload's fingerprint.
//
// Column names resolve inside the tracker lock, against the table's
// CURRENT schema (resolveNamedLocked, the one validator): an unknown name
// is ErrStaleSchema; an empty query, or a weight that is negative, NaN or
// above 2^53, is ErrBadObservation. Weight 0 — the JSON default for an
// omitted field — is coerced to 1, the convention /advise applies to its
// workloads, so an unweighted observed query counts as one execution.
//
// Ingestion is at-least-once: a batch is journaled and joins the log
// before its drift check runs, so a client retrying after a search error
// or an expired deadline re-ingests it. The context bounds the shadow
// search's slot wait and a drift recompute's portfolio fan-out, never the
// ingestion. Concurrent batches for one table may both recompute; the
// install from the longer log wins, which is at worst one redundant
// search, never stale advice paired with a newer workload.
//
// batchID names the logical batch for redelivery dedup: the first call
// with an ID ingests and records its outcomes in the dedup window; every
// later call with the same ID answers those outcomes verbatim (dup=true)
// without re-ingesting. An empty ID skips dedup entirely. The only error
// is an over-long ID (ErrBadObservation); per-entry failures ride the
// outcomes.
func (s *Service) Observe(ctx context.Context, batchID string, batches []TableObservation) (outs []ObserveOutcome, dup bool, err error) {
	if batchID == "" {
		return s.ingestBatches(ctx, batches), false, nil
	}
	if len(batchID) > maxBatchIDLen {
		return nil, false, fmt.Errorf("%w: batch id longer than %d bytes", ErrBadObservation, maxBatchIDLen)
	}
	// The cache's once collapses a retry racing the original ingest into a
	// single application: the retry blocks until the first attempt's
	// outcomes exist, then answers them.
	return s.observeSeen.Get(batchID, func() ([]ObserveOutcome, error) {
		return s.ingestBatches(ctx, batches), nil
	})
}
