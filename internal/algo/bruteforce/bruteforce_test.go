package bruteforce

import (
	"errors"
	"math/rand"
	"testing"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

func model() cost.Model { return cost.NewHDD(cost.DefaultDisk()) }

func randomWorkload(t *testing.T, rng *rand.Rand, nAttrs, nQueries int) schema.TableWorkload {
	t.Helper()
	cols := make([]schema.Column, nAttrs)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 1 + rng.Intn(60)}
	}
	tab, err := schema.NewTable("t", int64(10_000+rng.Intn(500_000)), cols)
	if err != nil {
		t.Fatal(err)
	}
	tw := schema.TableWorkload{Table: tab}
	for q := 0; q < nQueries; q++ {
		var s attrset.Set
		for a := 0; a < nAttrs; a++ {
			if rng.Intn(3) != 0 {
				s = s.Add(a)
			}
		}
		if s.IsEmpty() {
			s = attrset.Single(rng.Intn(nAttrs))
		}
		tw.Queries = append(tw.Queries, schema.TableQuery{ID: "q", Weight: 1 + float64(rng.Intn(5)), Attrs: s})
	}
	return tw
}

func TestName(t *testing.T) {
	if got := New().Name(); got != "BruteForce" {
		t.Errorf("Name = %q", got)
	}
}

// The fast bitmask search path must agree exactly with the generic
// Model-interface path on random workloads.
func TestFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		tw := randomWorkload(t, rng, 2+rng.Intn(5), 1+rng.Intn(5))
		fast, err := New().Partition(tw, model())
		if err != nil {
			t.Fatal(err)
		}
		// genericOnly wraps the model so the PartitionCoster assertion fails.
		slow, err := New().Partition(tw, genericOnly{model()})
		if err != nil {
			t.Fatal(err)
		}
		if diff := fast.Cost - slow.Cost; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("trial %d: fast cost %v != generic cost %v", trial, fast.Cost, slow.Cost)
		}
		if fast.Stats.Candidates != slow.Stats.Candidates {
			t.Errorf("trial %d: fast candidates %d != generic %d",
				trial, fast.Stats.Candidates, slow.Stats.Candidates)
		}
	}
}

// genericOnly hides the PartitionCoster fast path of a model.
type genericOnly struct{ m cost.Model }

func (g genericOnly) Name() string { return g.m.Name() }
func (g genericOnly) QueryCost(t *schema.Table, parts []attrset.Set, q attrset.Set) float64 {
	return g.m.QueryCost(t, parts, q)
}

// BruteForce must dominate every other disjoint layout: verify against a
// random sample of layouts on random workloads.
func TestOptimalityAgainstRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := model()
	for trial := 0; trial < 20; trial++ {
		tw := randomWorkload(t, rng, 2+rng.Intn(6), 1+rng.Intn(6))
		best, err := NewRaw(8).Partition(tw, m)
		if err != nil {
			t.Fatal(err)
		}
		for sample := 0; sample < 30; sample++ {
			// Random partitioning via random group assignment.
			n := tw.Table.NumAttrs()
			assign := make([]int, n)
			for i := range assign {
				assign[i] = rng.Intn(n)
			}
			groups := map[int]attrset.Set{}
			for i, g := range assign {
				groups[g] = groups[g].Add(i)
			}
			var parts []attrset.Set
			for _, p := range groups {
				parts = append(parts, p)
			}
			cc := cost.WorkloadCost(m, tw, parts)
			if cc < best.Cost-1e-9 {
				t.Fatalf("trial %d: random layout %v (cost %v) beats BruteForce (%v)",
					trial, parts, cc, best.Cost)
			}
		}
	}
}

// The number of candidates in raw mode equals the Bell number of the
// attribute count.
func TestRawCandidateCountIsBell(t *testing.T) {
	for n := 2; n <= 7; n++ {
		cols := make([]schema.Column, n)
		for i := range cols {
			cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 4}
		}
		tab := schema.MustTable("t", 1000, cols)
		tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
			{ID: "q", Weight: 1, Attrs: tab.AllAttrs()},
		}}
		res, err := NewRaw(8).Partition(tw, model())
		if err != nil {
			t.Fatal(err)
		}
		if want := partition.Bell(n).Int64(); res.Stats.Candidates != want {
			t.Errorf("n=%d: candidates = %d, want Bell = %d", n, res.Stats.Candidates, want)
		}
	}
}

func TestAtomCapError(t *testing.T) {
	cols := make([]schema.Column, 12)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 4}
	}
	tab := schema.MustTable("t", 1000, cols)
	tw := schema.TableWorkload{Table: tab}
	for i := 0; i < 12; i++ {
		tw.Queries = append(tw.Queries, schema.TableQuery{ID: "q", Weight: 1, Attrs: attrset.Single(i)})
	}
	bf := &BruteForce{MaxAtoms: 8}
	if _, err := bf.Partition(tw, model()); !errors.Is(err, algo.ErrInputTooLarge) {
		t.Errorf("12 atoms with cap 8: err=%v, want algo.ErrInputTooLarge", err)
	}
	// Raw mode over 12 attrs with cap 8 must also refuse.
	if _, err := (&BruteForce{Raw: true, MaxAtoms: 8}).Partition(tw, model()); !errors.Is(err, algo.ErrInputTooLarge) {
		t.Errorf("raw mode, 12 attrs with cap 8: err=%v, want algo.ErrInputTooLarge", err)
	}
}

func TestEmptyWorkload(t *testing.T) {
	tab := schema.MustTable("t", 1000, []schema.Column{{Name: "a", Size: 4}, {Name: "b", Size: 4}})
	res, err := New().Partition(schema.TableWorkload{Table: tab}, model())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(); err != nil {
		t.Error(err)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %v", res.Cost)
	}
}
