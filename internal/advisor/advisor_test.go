package advisor

import (
	"context"
	"fmt"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// adviseSequential is the pre-refactor façade loop, retained as the oracle:
// the concurrent portfolio fan-out must be indistinguishable from running
// every heuristic in order.
func adviseSequential(b *schema.Benchmark, m cost.Model) ([]TableAdvice, error) {
	var out []TableAdvice
	for _, tw := range b.TableWorkloads() {
		adv := TableAdvice{
			Table:        tw.Table,
			PerAlgorithm: make(map[string]float64),
			RowCost:      cost.WorkloadCost(m, tw, partition.Row(tw.Table).Parts),
			ColumnCost:   cost.WorkloadCost(m, tw, partition.Column(tw.Table).Parts),
		}
		adv.Algorithm = "Column"
		adv.Layout = partition.Column(tw.Table)
		adv.Cost = adv.ColumnCost
		for _, a := range algorithms.Heuristics() {
			res, err := a.Partition(tw, m)
			if err != nil {
				return nil, err
			}
			adv.PerAlgorithm[a.Name()] = res.Cost
			if res.Cost < adv.Cost {
				adv.Algorithm = a.Name()
				adv.Layout = res.Partitioning
				adv.Cost = res.Cost
			}
		}
		out = append(out, adv)
	}
	return out, nil
}

func TestAdviseMatchesSequentialReference(t *testing.T) {
	bench := schema.TPCH(1)
	m := cost.NewHDD(cost.DefaultDisk())
	got, err := Advise(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := adviseSequential(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d advice entries, want %d", len(got), len(want))
	}
	byName := make(map[string]TableAdvice, len(want))
	for _, w := range want {
		byName[w.Table.Name] = w
	}
	for _, g := range got {
		w, ok := byName[g.Table.Name]
		if !ok {
			t.Fatalf("unexpected table %s", g.Table.Name)
		}
		if g.Algorithm != w.Algorithm || g.Cost != w.Cost ||
			g.RowCost != w.RowCost || g.ColumnCost != w.ColumnCost {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", g.Table.Name, g.Algorithm, g.Cost, w.Algorithm, w.Cost)
		}
		if !g.Layout.Equal(w.Layout) {
			t.Errorf("%s: layout %s, want %s", g.Table.Name, g.Layout, w.Layout)
		}
		for name, c := range w.PerAlgorithm {
			if g.PerAlgorithm[name] != c {
				t.Errorf("%s/%s: cost %v, want %v", g.Table.Name, name, g.PerAlgorithm[name], c)
			}
		}
	}
}

func TestAdviseIsDeterministicAcrossRuns(t *testing.T) {
	bench := schema.TPCH(1)
	m := cost.NewHDD(cost.DefaultDisk())
	first, err := Advise(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := Advise(bench, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i].Algorithm != again[i].Algorithm || first[i].Cost != again[i].Cost ||
				!first[i].Layout.Equal(again[i].Layout) {
				t.Fatalf("trial %d: advice for %s changed across runs", trial, first[i].Table.Name)
			}
		}
	}
}

func TestAdviseValidatesInput(t *testing.T) {
	if _, err := Advise(nil, nil); err == nil {
		t.Error("Advise accepted a nil benchmark")
	}
	if _, err := AdviseTable(schema.TableWorkload{}, nil); err == nil {
		t.Error("AdviseTable accepted a nil table")
	}
}

func TestAdviseTableNilModelDefaultsToHDD(t *testing.T) {
	bench := schema.TPCH(0.01)
	tw := bench.Workload.ForTable(bench.Table("region"))
	adv, err := AdviseTable(tw, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AdviseTable(tw, cost.NewHDD(cost.DefaultDisk()))
	if err != nil {
		t.Fatal(err)
	}
	if adv.Cost != want.Cost || !adv.Layout.Equal(want.Layout) {
		t.Errorf("nil model advice differs from default HDD advice")
	}
}

// wideWorkload is a 24-column table "w" whose workload references its
// first n columns, three per query, so n past 20 exceeds Trojan's
// enumeration cap.
func wideWorkload(t *testing.T, n int) schema.TableWorkload {
	t.Helper()
	cols := make([]schema.Column, 24)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%02d", i), Kind: schema.KindChar, Size: 4 + 4*(i%5)}
	}
	tab, err := schema.NewTable("w", 100_000, cols)
	if err != nil {
		t.Fatal(err)
	}
	tw := schema.TableWorkload{Table: tab}
	for i := 0; i < n; i++ {
		tw.Queries = append(tw.Queries, schema.TableQuery{
			ID:     fmt.Sprintf("q%d", i),
			Weight: float64(1 + i%3),
			Attrs:  attrset.Of(i, (i+1)%n, (i+5)%n),
		})
	}
	return tw
}

// A workload wider than Trojan's cap makes Trojan abstain instead of
// failing the whole portfolio: the advice leaves Trojan out of
// PerAlgorithm and picks the cheapest of the members that ran.
func TestAdviseTableAbstainsPastTrojanCap(t *testing.T) {
	m := cost.NewHDD(cost.DefaultDisk())
	if adv, err := AdviseTable(wideWorkload(t, 20), m); err != nil {
		t.Fatal(err)
	} else if _, ok := adv.PerAlgorithm["Trojan"]; !ok {
		t.Error("Trojan abstained at 20 referenced attributes, within its cap")
	}
	for _, n := range []int{21, 24} {
		tw := wideWorkload(t, n)
		adv, err := AdviseTable(tw, m)
		if err != nil {
			t.Fatalf("%d referenced attributes: %v", n, err)
		}
		if _, ok := adv.PerAlgorithm["Trojan"]; ok {
			t.Errorf("%d referenced attributes: PerAlgorithm has a Trojan entry", n)
		}
		wantAlgo, wantCost := "Column", adv.ColumnCost
		ran := 0
		for _, a := range algorithms.Heuristics() {
			if a.Name() == "Trojan" {
				continue
			}
			res, err := a.Partition(tw, m)
			if err != nil {
				t.Fatal(err)
			}
			ran++
			if got := adv.PerAlgorithm[a.Name()]; got != res.Cost {
				t.Errorf("%d attrs: PerAlgorithm[%s] = %v, want %v", n, a.Name(), got, res.Cost)
			}
			if res.Cost < wantCost {
				wantAlgo, wantCost = a.Name(), res.Cost
			}
		}
		if len(adv.PerAlgorithm) != ran {
			t.Errorf("%d attrs: PerAlgorithm has %d entries, want %d", n, len(adv.PerAlgorithm), ran)
		}
		if adv.Algorithm != wantAlgo || adv.Cost != wantCost {
			t.Errorf("%d attrs: advice %s at %v, want the cheapest member %s at %v",
				n, adv.Algorithm, adv.Cost, wantAlgo, wantCost)
		}
	}
}

// POST /advise answers 200 for a table past Trojan's cap.
func TestServerAdvisePastTrojanCap(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	tw := wideWorkload(t, 24)
	spec := TableSpec{Name: tw.Table.Name, Rows: tw.Table.Rows}
	for _, c := range tw.Table.Columns {
		spec.Columns = append(spec.Columns, ColumnSpec{Name: c.Name, Kind: "char", Size: c.Size})
	}
	req := AdviseRequest{Tables: []TableSpec{spec}}
	for _, q := range tw.Queries {
		req.Queries = append(req.Queries, QuerySpec{ID: q.ID, Weight: q.Weight,
			Tables: map[string][]string{tw.Table.Name: tw.Table.AttrNames(q.Attrs)}})
	}
	resp, err := client.Advise(context.Background(), req)
	if err != nil {
		t.Fatalf("advise past Trojan's cap: %v", err)
	}
	if len(resp.Advice) != 1 || resp.Advice[0].Algorithm == "" {
		t.Fatalf("advice: %+v", resp.Advice)
	}
	if _, ok := resp.Advice[0].PerAlgorithm["Trojan"]; ok {
		t.Error("wire advice carries a Trojan cost past its cap")
	}
}
