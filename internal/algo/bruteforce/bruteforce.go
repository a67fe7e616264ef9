// Package bruteforce implements exhaustive vertical partitioning search:
// enumerate candidate partitionings, price each against the workload, and
// keep the cheapest. The paper uses it as the optimality baseline (its
// Section 3 derives the Bell-number search-space size).
//
// Two search spaces are supported:
//
//   - Fragment mode (default): enumerate partitions of the table's atomic
//     fragments, keeping the unreferenced attributes as one fixed partition.
//     Attributes with identical access signatures gain nothing from being
//     separated (scan volume is unchanged and proportional buffer sharing
//     makes the merged seek cost at most the sum of the split costs), so
//     this reduction preserves optimality up to block-packing rounding while
//     shrinking Bell(16) ≈ 1.05e10 for Lineitem to Bell(12) ≈ 4.2e6.
//   - Raw mode: enumerate partitions of the raw attributes. Exact but only
//     feasible for narrow tables; used by tests to validate fragment mode.
package bruteforce

import (
	"fmt"
	"runtime"
	"time"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// BruteForce is the exhaustive search. The zero value uses fragment mode
// with the default atom cap and one search worker per CPU.
type BruteForce struct {
	// Raw switches to raw-attribute enumeration.
	Raw bool
	// MaxAtoms caps the number of enumeration atoms (fragments or raw
	// attributes). Partition fails with algo.ErrInputTooLarge beyond the
	// cap, because the Bell-number blow-up would not terminate in
	// reasonable time.
	// Zero means the default of 13 (Bell(13) ≈ 2.8e7).
	MaxAtoms int
	// Workers bounds the worker pool of the sharded candidate walk.
	// Zero means up to runtime.GOMAXPROCS(0), drawn from a process-wide
	// budget shared by all concurrent searches; an explicit count >= 2 is
	// honored unconditionally; 1 forces the sequential walk. Results are
	// bit-identical at every setting (see parallel.go).
	Workers int
}

// New returns a fragment-mode BruteForce.
func New() *BruteForce { return &BruteForce{} }

// NewRaw returns a raw-attribute BruteForce for tables of up to maxAttrs
// attributes.
func NewRaw(maxAttrs int) *BruteForce { return &BruteForce{Raw: true, MaxAtoms: maxAttrs} }

// Name implements algo.Algorithm.
func (b *BruteForce) Name() string { return "BruteForce" }

// Partition implements algo.Algorithm.
func (b *BruteForce) Partition(tw schema.TableWorkload, model cost.Model) (algo.Result, error) {
	start := time.Now()
	var c algo.Counter

	maxAtoms := b.MaxAtoms
	if maxAtoms == 0 {
		maxAtoms = 13
	}

	var atoms []attrset.Set // enumeration units
	var fixed []attrset.Set // partitions excluded from enumeration
	if b.Raw {
		atoms = partition.Column(tw.Table).Parts
	} else {
		referenced := tw.ReferencedAttrs()
		for _, f := range partition.Fragments(tw) {
			if f.Overlaps(referenced) {
				atoms = append(atoms, f)
			} else {
				// Unreferenced attributes are never read; keeping them in
				// their own partition is always optimal and need not be
				// enumerated.
				fixed = append(fixed, f)
			}
		}
	}
	if len(atoms) > maxAtoms {
		return algo.Result{}, fmt.Errorf(
			"bruteforce: table %s needs %d atoms, cap is %d (Bell(%d) = %v candidates): %w",
			tw.Table.Name, len(atoms), maxAtoms, len(atoms), partition.Bell(len(atoms)), algo.ErrInputTooLarge)
	}
	if len(atoms) == 0 {
		// Nothing referenced: any layout costs zero; report the fixed parts
		// (or row layout when even those are absent).
		parts := fixed
		if len(parts) == 0 {
			parts = partition.Row(tw.Table).Parts
		}
		return algo.Finish(tw, parts, 0, &c, start)
	}

	var best []attrset.Set
	var bestCost float64
	if pc, ok := model.(cost.PartitionCoster); ok && len(atoms) <= 64 {
		best, bestCost = searchFast(tw, pc, atoms, &c, b.workers(), b.Workers == 0)
	} else {
		best, bestCost = searchGeneric(tw, model, atoms, fixed, &c)
	}
	return algo.Finish(tw, append(best, fixed...), bestCost, &c, start)
}

// workers resolves the effective worker count.
func (b *BruteForce) workers() int {
	if b.Workers > 0 {
		return b.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// searchGeneric prices candidates through the Model interface.
func searchGeneric(
	tw schema.TableWorkload, model cost.Model,
	atoms, fixed []attrset.Set, c *algo.Counter,
) ([]attrset.Set, float64) {
	var best []attrset.Set
	bestCost := 0.0
	scratch := make([]attrset.Set, 0, len(atoms)+len(fixed))
	partition.SetPartitions(atoms, func(groups []attrset.Set) bool {
		scratch = append(scratch[:0], groups...)
		scratch = append(scratch, fixed...)
		cc := c.Eval(model, tw, scratch)
		if best == nil || cc < bestCost {
			best = partition.Clone(groups)
			bestCost = cc
		}
		return true
	})
	return best, bestCost
}

// searchFast prices candidates with the PartitionCoster fast path, working
// on atom bitmasks: per candidate group it needs only the group's byte
// width and, per query, the combined width of all referenced groups. The
// fixed parts are unreferenced in fragment mode and therefore contribute no
// cost; they are excluded here by construction. The walk is sharded over a
// bounded worker pool — see parallel.go.
