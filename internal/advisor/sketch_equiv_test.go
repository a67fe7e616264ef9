package advisor

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
)

var update = flag.Bool("update", false, "rewrite golden files")

// equivStream is the recorded observation stream the differential test
// replays: deterministic, index-derived, three phases — stable co-access
// traffic, a hard shift to single-column reads (drift), then the drifted
// mix sustained (stable again under the recomputed advice). Batch sizes and
// weights vary so the exact log and the sketch see non-uniform mass.
func equivStream() [][]schema.TableQuery {
	var batches [][]schema.TableQuery
	id := 0
	add := func(n int, attrs func(j int) attrset.Set) {
		batch := make([]schema.TableQuery, n)
		for j := range batch {
			id++
			batch[j] = schema.TableQuery{
				ID:     fmt.Sprintf("e%d", id),
				Weight: float64(1 + id%3),
				Attrs:  attrs(j),
			}
		}
		batches = append(batches, batch)
	}
	coAccess := func(j int) attrset.Set {
		if j%3 == 2 {
			return attrset.Of(2, 3)
		}
		return attrset.Of(0, 1)
	}
	single := func(j int) attrset.Set { return attrset.Of(j % 2) }
	for i := 0; i < 8; i++ {
		add(2+i%3, coAccess)
	}
	for i := 0; i < 8; i++ {
		add(3+i%2, single)
	}
	for i := 0; i < 8; i++ {
		add(2+i%4, single)
	}
	return batches
}

// replayVerdicts streams equivStream through a fresh service in the given
// drift-tracking mode and renders one verdict line per batch.
func replayVerdicts(t *testing.T, mode string) []string {
	t.Helper()
	svc := NewService(Config{
		DriftThreshold: 0.15,
		DriftWindow:    16,
		DriftTracking:  mode,
	})
	register(t, svc)
	var lines []string
	for i, batch := range equivStream() {
		rep, err := observe(svc, "events", batch)
		if err != nil {
			t.Fatalf("%s mode, batch %d: %v", mode, i, err)
		}
		lines = append(lines, fmt.Sprintf("batch=%02d drifted=%t recomputed=%t observed=%d recomputes=%d",
			i, rep.Drifted, rep.Recomputed, rep.Observed, rep.Recomputes))
	}
	return lines
}

// The sketch-equivalence pin: on the recorded stream, the windowed
// space-saving sketch produces batch-for-batch the SAME drift verdicts as
// the exact full-log pricer, and both match the committed golden file. The
// stream's distinct attribute sets (4) fit any reasonable capacity, so the
// aggregated workload prices every fixed layout identically to the log —
// this test is the evidence behind TrackSketch's contract. Regenerate with
// go test ./internal/advisor -run TestSketchDriftVerdictsMatchExact -update
func TestSketchDriftVerdictsMatchExact(t *testing.T) {
	exact := replayVerdicts(t, TrackExact)
	sk := replayVerdicts(t, TrackSketch)
	for i := range exact {
		if i >= len(sk) || exact[i] != sk[i] {
			t.Fatalf("verdicts diverge at batch %d:\n  exact:  %s\n  sketch: %s", i, exact[i], sk[i])
		}
	}

	got := strings.Join(exact, "\n") + "\n"
	golden := filepath.Join("testdata", "observe_verdicts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("verdict stream diverged from golden:\ngot:\n%swant:\n%s", got, want)
	}

	// The drifted phase must actually have fired — a golden full of
	// drifted=false would pin nothing.
	if !strings.Contains(got, "recomputed=true") {
		t.Error("stream never recomputed; the equivalence pin is vacuous")
	}
}
