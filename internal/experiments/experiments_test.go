package experiments

import (
	"strings"
	"sync"
	"testing"
)

// smallStudy is shared across tests; the 2-D sweep is computed once.
var smallStudy *Study

func study(t testing.TB) *Study {
	if smallStudy == nil {
		s, err := NewStudy(SmallStudyConfig())
		if err != nil {
			t.Fatal(err)
		}
		smallStudy = s
	}
	return smallStudy
}

// allArtifacts holds the one RunAll over the shared study. The
// per-experiment tests below assert on its artifacts by id, so every
// experiment executes once per go test however many tests look at it.
var (
	allOnce      sync.Once
	allArtifacts []*Artifacts
)

func runAll(t testing.TB) []*Artifacts {
	s := study(t)
	allOnce.Do(func() { allArtifacts = RunAll(s) })
	return allArtifacts
}

// artifact returns the named experiment's artifacts from the shared run.
func artifact(t testing.TB, id string) *Artifacts {
	t.Helper()
	for _, a := range runAll(t) {
		if a.ID == id {
			return a
		}
	}
	t.Fatalf("RunAll produced no %q artifacts", id)
	return nil
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	ids := IDs()
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "adaptive", "aggsweep", "joinsweep", "memsweep",
		"parallel", "regions", "regret", "scoreboard", "sortspill", "systems", "worstmap"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) missing", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestAxisHelper(t *testing.T) {
	fr, th := axis(1<<10, 3)
	if len(fr) != 4 || fr[0] != 0.125 || fr[3] != 1 {
		t.Errorf("fractions = %v", fr)
	}
	if th[0] != 128 || th[3] != 1024 {
		t.Errorf("thresholds = %v", th)
	}
	// Tiny tables clamp thresholds to 1 row.
	_, th = axis(4, 6)
	if th[0] != 1 {
		t.Errorf("clamped threshold = %d", th[0])
	}
}

func TestFractionLabels(t *testing.T) {
	got := FractionLabels([]float64{0.25, 0.5, 1})
	want := []string{"2^-2", "2^-1", "2^0"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("labels = %v, want %v", got, want)
		}
	}
}

func TestFigure1ChecksPass(t *testing.T) {
	a := artifact(t, "fig1")
	if !a.Passed() {
		t.Errorf("figure 1 checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.CSV, "A1") || !strings.Contains(a.ASCII, "A1") {
		t.Error("artifacts missing plan data")
	}
	if !strings.HasPrefix(a.SVG, "<svg") {
		t.Error("missing SVG")
	}
}

func TestFigure2ChecksPass(t *testing.T) {
	a := artifact(t, "fig2")
	if !a.Passed() {
		t.Errorf("figure 2 checks failed:\n%s", a.Summary)
	}
}

func TestLegendFigures(t *testing.T) {
	// The two legends render in microseconds and must work with no study
	// at all (Definition.RunContext passes nil), so they alone run here
	// rather than being read from the shared RunAll.
	for _, f := range []func(*Study) *Artifacts{Figure3, Figure6} {
		a := f(nil)
		if !a.Passed() {
			t.Errorf("%s checks failed:\n%s", a.ID, a.Summary)
		}
		if !strings.HasPrefix(a.SVG, "<svg") || a.ASCII == "" {
			t.Errorf("%s artifacts incomplete", a.ID)
		}
	}
}

func TestTwoDimensionalFigures(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig7", "fig8", "fig9", "fig10"} {
		a := artifact(t, id)
		t.Run(a.ID, func(t *testing.T) {
			if !a.Passed() {
				t.Errorf("checks failed:\n%s", a.Summary)
			}
			if a.CSV == "" || a.ASCII == "" || !strings.HasPrefix(a.SVG, "<svg") {
				t.Error("artifacts incomplete")
			}
			if a.ID != "fig10" && a.PPM == "" {
				t.Error("missing PPM")
			}
		})
	}
}

func TestSortSpillChecksPass(t *testing.T) {
	a := artifact(t, "sortspill")
	if !a.Passed() {
		t.Errorf("sortspill checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.CSV, "graceful_s") {
		t.Error("missing CSV series")
	}
}

func TestJoinSweepChecksPass(t *testing.T) {
	a := artifact(t, "joinsweep")
	if !a.Passed() {
		t.Errorf("joinsweep checks failed:\n%s", a.Summary)
	}
}

func TestAggSweepChecksPass(t *testing.T) {
	a := artifact(t, "aggsweep")
	if !a.Passed() {
		t.Errorf("aggsweep checks failed:\n%s", a.Summary)
	}
}

func TestRegretChecksPass(t *testing.T) {
	a := artifact(t, "regret")
	if !a.Passed() {
		t.Errorf("regret checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.CSV, "non_robust") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(a.JSON, "\"regret_2d\"") || !strings.Contains(a.JSON, "\"candidates\"") {
		t.Error("grids JSON missing the regret overlay or the candidate list")
	}
	if !strings.Contains(a.ASCII, "non-robust cells") {
		t.Error("missing non-robust region rendering")
	}
	if a.PPM == "" || a.SVG == "" {
		t.Error("regret map must render as SVG and PPM")
	}
	if !strings.Contains(a.Summary, "pick share per candidate") {
		t.Error("summary missing the pick ranking")
	}
}

func TestWorstMapChecksPass(t *testing.T) {
	a := artifact(t, "worstmap")
	if !a.Passed() {
		t.Errorf("worstmap checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.Summary, "WORST choice") {
		t.Error("missing danger ranking")
	}
}

func TestSystemsCompareChecksPass(t *testing.T) {
	a := artifact(t, "systems")
	if !a.Passed() {
		t.Errorf("systems checks failed:\n%s", a.Summary)
	}
	for _, sys := range []string{"A", "B", "C"} {
		if !strings.Contains(a.Summary, sys) {
			t.Errorf("summary missing system %s", sys)
		}
	}
}

func TestRunAllProducesEverything(t *testing.T) {
	arts := runAll(t)
	if len(arts) != len(IDs()) {
		t.Fatalf("RunAll produced %d artifacts", len(arts))
	}
	for i, a := range arts {
		if a.ID != IDs()[i] {
			t.Errorf("artifact %d is %s, want %s (registry order)", i, a.ID, IDs()[i])
		}
		if a.Summary == "" {
			t.Errorf("%s has no summary", a.ID)
		}
	}
}

func TestParallelSweepChecksPass(t *testing.T) {
	a := artifact(t, "parallel")
	if !a.Passed() {
		t.Errorf("parallel checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.CSV, "workers") {
		t.Error("missing CSV header")
	}
}

func TestRegionsChecksPass(t *testing.T) {
	a := artifact(t, "regions")
	if !a.Passed() {
		t.Errorf("regions checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.CSV, "areaFraction") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(a.ASCII, "optimal on") {
		t.Error("missing region renderings")
	}
}

func TestScoreboardChecksPass(t *testing.T) {
	a := artifact(t, "scoreboard")
	if !a.Passed() {
		t.Errorf("scoreboard checks failed:\n%s", a.Summary)
	}
	if !strings.Contains(a.CSV, "meanDanger") {
		t.Error("missing CSV header")
	}
}

func TestMemSweepChecksPass(t *testing.T) {
	a := artifact(t, "memsweep")
	if !a.Passed() {
		t.Errorf("memsweep checks failed:\n%s", a.Summary)
	}
}
