package experiments

import (
	"reflect"
	"testing"

	"robustmap/internal/core"
	"robustmap/internal/plan"
)

// TestAdaptiveVsExhaustiveFullStudy is the acceptance test of the adaptive
// sweeper: over the full 13-plan 2-D study at study resolution, the
// adaptive sweep (running with parallel workers — execute under -race to
// also check the engine-sharing contract) must measure at most 40% of the
// exhaustive sweep's cells while reproducing its winner grid, result-size
// grid, and map-scale landmark sets exactly, with every measured cell
// bit-identical.
func TestAdaptiveVsExhaustiveFullStudy(t *testing.T) {
	exhaustive := study(t).Map2D() // shared across the test suite

	cfg := SmallStudyConfig()
	cfg.Parallelism = 4
	cfg.Refine = true
	cfg.CacheSize = -1
	ad, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := ad.Map2D()
	mesh := ad.Mesh2D()
	if mesh == nil {
		t.Fatal("refined study did not record a mesh")
	}

	if frac := mesh.MeasuredFraction(); frac > 0.40 {
		t.Errorf("adaptive sweep measured %d of %d cells (%.1f%%), want <= 40%%",
			mesh.MeasuredCells, mesh.TotalCells, frac*100)
	}
	for p := range exhaustive.Plans {
		for i := range exhaustive.TA {
			for j := range exhaustive.TB {
				if mesh.PlanPoints[p][i][j] &&
					adaptive.Times[p][i][j] != exhaustive.Times[p][i][j] {
					t.Fatalf("measured cell (%s, %d, %d) = %v, exhaustive %v",
						exhaustive.Plans[p], i, j,
						adaptive.Times[p][i][j], exhaustive.Times[p][i][j])
				}
			}
		}
	}
	if !reflect.DeepEqual(adaptive.WinnerGrid(), exhaustive.WinnerGrid()) {
		t.Error("winner grids differ between adaptive and exhaustive study sweeps")
	}
	if !reflect.DeepEqual(adaptive.Rows, exhaustive.Rows) {
		t.Error("result-size grids differ despite the engine oracle")
	}
	lcfg := core.MapLandmarkConfig()
	for _, id := range exhaustive.Plans {
		la := adaptive.LandmarkGrid(id, lcfg)
		le := exhaustive.LandmarkGrid(id, lcfg)
		if !reflect.DeepEqual(la, le) {
			t.Errorf("map-scale landmark sets differ for plan %s: adaptive %v, exhaustive %v",
				id, la, le)
		}
	}

	// The shared measurement cache must have served the sweep: every miss
	// is a measured cell, and a repeated 1-D slice is all hits.
	if st := ad.CacheStats(); st.Misses == 0 {
		t.Error("cache recorded no misses; sources are not routed through it")
	}
	ad.Sweep1D(plan.Figure1Plans())
	mid := ad.CacheStats().Misses
	ad.Sweep1D(plan.Figure1Plans())
	after := ad.CacheStats()
	if after.Misses != mid {
		t.Errorf("repeated 1-D sweep re-measured %d cells, want 0", after.Misses-mid)
	}
	if after.Hits == 0 {
		t.Error("repeated 1-D sweep recorded no cache hits")
	}
}

// TestAdaptiveStudyDeterministicAcrossWorkers pins schedule independence
// of the engine-backed adaptive sweep at reduced scale: serial and
// 4-worker refined studies produce identical maps and meshes.
func TestAdaptiveStudyDeterministicAcrossWorkers(t *testing.T) {
	mk := func(parallelism int) *Study {
		cfg := SmallStudyConfig()
		cfg.Rows = 1 << 14
		cfg.Engine.Rows = cfg.Rows
		cfg.MaxExp2D = 6
		cfg.Parallelism = parallelism
		cfg.Refine = true
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ser, par := mk(1), mk(4)
	if !reflect.DeepEqual(ser.Map2D(), par.Map2D()) {
		t.Error("adaptive study maps differ between serial and parallel executors")
	}
	if !reflect.DeepEqual(ser.Mesh2D(), par.Mesh2D()) {
		t.Error("adaptive study meshes differ between serial and parallel executors")
	}
}

// TestAdaptiveExperimentChecks requires every acceptance check of the
// registered adaptive experiment to pass on the shared study.
func TestAdaptiveExperimentChecks(t *testing.T) {
	art := artifact(t, "adaptive")
	if !art.Passed() {
		t.Fatalf("adaptive experiment checks failed:\n%s", art.Summary)
	}
	if art.SVG == "" || art.CSV == "" || art.ASCII == "" {
		t.Error("adaptive experiment artifacts incomplete")
	}
}
