package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// run1D and run2D run a sweep request to completion for tests that only
// want its maps; a configuration error is a bug in the test.
func run1D(plans []PlanSource, fr []float64, th []int64, opts ...SweepOption) (*Map1D, *Mesh1D) {
	m, mesh, err := NewSweep(plans, append([]SweepOption{Grid1D(fr, th)}, opts...)...).Run1D(context.Background())
	if err != nil {
		panic(err)
	}
	return m, mesh
}

func run2D(plans []PlanSource, frA, frB []float64, thA, thB []int64, opts ...SweepOption) (*Map2D, *Mesh2D) {
	m, mesh, err := NewSweep(plans, append([]SweepOption{Grid2D(frA, frB, thA, thB)}, opts...)...).Run2D(context.Background())
	if err != nil {
		panic(err)
	}
	return m, mesh
}

// Synthetic plans for adaptive-sweep tests: analytic cost curves that are
// piecewise-affine in the selectivity fractions, like the engine's, but
// cheap enough to sweep exhaustively many times. synthRows is the shared
// result-size model (all plans must agree on it).

const synthN = 1 << 16

func synthRows(ta, tb int64) int64 {
	if tb < 0 {
		return ta
	}
	return ta * tb / synthN
}

func synthPlans() []PlanSource {
	mk := func(id string, cost func(ta, tb int64) time.Duration) PlanSource {
		return PlanSource{ID: id, Measure: func(ta, tb int64) Measurement {
			return Measurement{Time: cost(ta, tb), Rows: synthRows(ta, tb)}
		}}
	}
	return []PlanSource{
		mk("scan", func(ta, tb int64) time.Duration {
			return time.Second
		}),
		mk("idx-a", func(ta, tb int64) time.Duration {
			return time.Duration(100_000 + 40_000*ta)
		}),
		mk("idx-b", func(ta, tb int64) time.Duration {
			if tb < 0 {
				return 3 * time.Second
			}
			return time.Duration(100_000 + 40_000*tb)
		}),
		// spill jumps by 8x past 1/8 of the table — a discontinuity
		// landmark the adaptive sweep must reproduce exactly.
		mk("spill", func(ta, tb int64) time.Duration {
			if ta <= synthN/8 {
				return time.Duration(50_000 + 20_000*ta)
			}
			return time.Duration(50_000 + 160_000*ta)
		}),
	}
}

func expAxis(maxExp int) ([]float64, []int64) {
	var fr []float64
	var th []int64
	for k := maxExp; k >= 0; k-- {
		fr = append(fr, 1/float64(int64(1)<<uint(k)))
		t := int64(synthN) >> uint(k)
		if t < 1 {
			t = 1
		}
		th = append(th, t)
	}
	return fr, th
}

func synthOracle() AdaptiveConfig {
	cfg := DefaultAdaptiveConfig()
	cfg.ResultSize = synthRows
	return cfg
}

func TestAdaptiveSweep2DEquivalence(t *testing.T) {
	plans := synthPlans()
	fr, th := expAxis(16)
	exhaustive, _ := run2D(plans, fr, fr, th, th)
	adaptive, mesh := run2D(plans, fr, fr, th, th, WithAdaptive(synthOracle()))

	if mesh.MeasuredCells >= mesh.TotalCells {
		t.Fatalf("adaptive sweep measured %d of %d cells — no savings", mesh.MeasuredCells, mesh.TotalCells)
	}
	if frac := mesh.MeasuredFraction(); frac > 0.5 {
		t.Errorf("adaptive sweep measured %.0f%% of cells, want well under 50%%", frac*100)
	}
	// Measured cells must hold exactly the exhaustive values.
	for p := range plans {
		for i := range th {
			for j := range th {
				if mesh.PlanPoints[p][i][j] && adaptive.Times[p][i][j] != exhaustive.Times[p][i][j] {
					t.Fatalf("measured cell (%d,%d,%d) = %v, exhaustive %v",
						p, i, j, adaptive.Times[p][i][j], exhaustive.Times[p][i][j])
				}
			}
		}
	}
	// The derived maps must match exactly: winners, rows, landmarks.
	if !reflect.DeepEqual(adaptive.WinnerGrid(), exhaustive.WinnerGrid()) {
		t.Error("winner grids differ between adaptive and exhaustive sweeps")
	}
	if !reflect.DeepEqual(adaptive.Rows, exhaustive.Rows) {
		t.Error("rows grids differ despite the result-size oracle")
	}
	// Landmark equality is guaranteed at the sweep's stabilized detector
	// granularity (AdaptiveConfig.Landmarks, MapLandmarkConfig here).
	cfg := MapLandmarkConfig()
	for _, id := range exhaustive.Plans {
		la := adaptive.LandmarkGrid(id, cfg)
		le := exhaustive.LandmarkGrid(id, cfg)
		if !reflect.DeepEqual(la, le) {
			t.Errorf("landmark sets differ for plan %s: adaptive %v, exhaustive %v", id, la, le)
		}
	}
}

func TestAdaptiveSweep2DDeterministicAcrossExecutors(t *testing.T) {
	plans := synthPlans()
	fr, th := expAxis(14)
	cfg := synthOracle()
	mSer, meshSer := run2D(plans, fr, fr, th, th, WithAdaptive(cfg))
	mPar, meshPar := run2D(plans, fr, fr, th, th, WithAdaptive(cfg), WithParallelism(8))
	if !reflect.DeepEqual(mSer, mPar) {
		t.Error("adaptive maps differ between serial and parallel executors")
	}
	if !reflect.DeepEqual(meshSer, meshPar) {
		t.Error("refinement meshes differ between serial and parallel executors")
	}
}

// TestAdaptiveSweep2DSmallGridFallsBack: a genuine 2-D request with an
// axis too short to subsample measures exhaustively — including a one- or
// two-point B axis, which only a Grid1D request may collapse.
func TestAdaptiveSweep2DSmallGridFallsBack(t *testing.T) {
	plans := synthPlans()
	frLong, thLong := expAxis(8)
	for _, c := range []struct {
		name       string
		expA, expB int
	}{
		{"2x2", 1, 1},
		{"9x1", 8, 0},
		{"9x2", 8, 1},
		{"2x9", 1, 8},
	} {
		frA, thA := expAxis(c.expA)
		frB, thB := expAxis(c.expB)
		m, mesh := run2D(plans, frA, frB, thA, thB, WithAdaptive(DefaultAdaptiveConfig()))
		if mesh.MeasuredCells != mesh.TotalCells || mesh.Rounds != 1 {
			t.Errorf("%s: tiny grid should measure exhaustively in one round, got %d of %d in %d",
				c.name, mesh.MeasuredCells, mesh.TotalCells, mesh.Rounds)
		}
		if want, _ := run2D(plans, frA, frB, thA, thB); !reflect.DeepEqual(m, want) {
			t.Errorf("%s: fallback map differs from exhaustive sweep", c.name)
		}
	}
	// The same 9-point axis as a 1-D request does refine.
	if _, mesh := run1D(plans, frLong, thLong, WithAdaptive(DefaultAdaptiveConfig())); mesh.MeasuredCells >= mesh.TotalCells {
		t.Errorf("9-point 1-D sweep measured all %d cells", mesh.TotalCells)
	}
}

// TestAdaptiveSweep1DSmallAxes covers the edges of the collapsed axis:
// under 3 points the sweep falls back to an all-measured mesh, and 3
// points — the smallest refinable axis — measure both ends, then the
// midpoint, like any root block.
func TestAdaptiveSweep1DSmallAxes(t *testing.T) {
	plans := synthPlans()
	for n := 1; n <= 3; n++ {
		fr, th := expAxis(n - 1)
		res, err := NewSweep(plans, Grid1D(fr, th), WithAdaptive(synthOracle())).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Map2D != nil || res.Mesh2D != nil {
			t.Errorf("n=%d: 1-D sweep set 2-D result fields", n)
		}
		m, mesh := res.Map1D, res.Mesh1D
		if want, _ := run1D(plans, fr, th); !reflect.DeepEqual(m, want) {
			t.Errorf("n=%d: adaptive map differs from exhaustive sweep", n)
		}
		wantRounds := 1
		if n == 3 {
			wantRounds = 2
		}
		if mesh.MeasuredCells != len(plans)*n || mesh.TotalCells != len(plans)*n || mesh.Rounds != wantRounds {
			t.Errorf("n=%d: mesh = %d of %d cells in %d rounds", n, mesh.MeasuredCells, mesh.TotalCells, mesh.Rounds)
		}
		for p := range plans {
			for i := 0; i < n; i++ {
				if !mesh.PlanPoints[p][i] || !mesh.Points[i] {
					t.Errorf("n=%d: plan %d point %d not marked measured", n, p, i)
				}
			}
		}
	}
}

func TestSplitCoords(t *testing.T) {
	for _, c := range []struct {
		lo, hi int
		want   []int
	}{
		{4, 4, []int{4}}, // collapsed axis: one coordinate, not {4, 4}
		{4, 5, []int{4, 5}},
		{4, 6, []int{4, 5, 6}},
		{0, 9, []int{0, 4, 9}},
	} {
		if got := splitCoords(c.lo, c.hi); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitCoords(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestAdaptiveSweep1DEquivalence(t *testing.T) {
	plans := synthPlans()
	fr, th := expAxis(16)
	exhaustive, _ := run1D(plans, fr, th)
	adaptive, mesh := run1D(plans, fr, th, WithAdaptive(synthOracle()))

	if mesh.MeasuredCells >= mesh.TotalCells {
		t.Fatalf("adaptive 1-D sweep measured %d of %d cells", mesh.MeasuredCells, mesh.TotalCells)
	}
	for p := range plans {
		for i := range th {
			if mesh.PlanPoints[p][i] && adaptive.Times[p][i] != exhaustive.Times[p][i] {
				t.Fatalf("measured cell (%d,%d) = %v, exhaustive %v",
					p, i, adaptive.Times[p][i], exhaustive.Times[p][i])
			}
		}
	}
	if !reflect.DeepEqual(adaptive.Rows, exhaustive.Rows) {
		t.Error("1-D rows differ despite the result-size oracle")
	}
	cfg := MapLandmarkConfig()
	for _, id := range exhaustive.Plans {
		la := FindLandmarks(adaptive.Rows, adaptive.Series(id), cfg)
		le := FindLandmarks(exhaustive.Rows, exhaustive.Series(id), cfg)
		if !reflect.DeepEqual(la, le) {
			t.Errorf("1-D landmarks differ for plan %s", id)
		}
	}
	// Per-point winners must agree too.
	for i := range th {
		wa, we := 0, 0
		for p := 1; p < len(plans); p++ {
			if adaptive.Times[p][i] < adaptive.Times[wa][i] {
				wa = p
			}
			if exhaustive.Times[p][i] < exhaustive.Times[we][i] {
				we = p
			}
		}
		if wa != we {
			t.Errorf("1-D winner differs at point %d: adaptive %s, exhaustive %s",
				i, adaptive.Plans[wa], exhaustive.Plans[we])
		}
	}
}

func TestAdaptiveSweep1DDeterministicAcrossExecutors(t *testing.T) {
	plans := synthPlans()
	fr, th := expAxis(12)
	cfg := synthOracle()
	mSer, meshSer := run1D(plans, fr, th, WithAdaptive(cfg))
	mPar, meshPar := run1D(plans, fr, th, WithAdaptive(cfg), WithParallelism(4))
	if !reflect.DeepEqual(mSer, mPar) {
		t.Error("adaptive 1-D maps differ between serial and parallel executors")
	}
	if !reflect.DeepEqual(meshSer, meshPar) {
		t.Error("1-D meshes differ between serial and parallel executors")
	}
}

// TestAdaptiveRowOracleMismatchPanics: a result-size oracle or a second
// plan disagreeing on row counts panics naming the plan and the point, in
// the coordinates of the request's own dimensionality.
func TestAdaptiveRowOracleMismatchPanics(t *testing.T) {
	fr, th := expAxis(8)
	badOracle := DefaultAdaptiveConfig()
	badOracle.ResultSize = func(ta, tb int64) int64 { return -7 } // disagrees with every plan
	offByOne := PlanSource{ID: "bad", Measure: func(ta, tb int64) Measurement {
		return Measurement{Time: time.Second, Rows: synthRows(ta, tb) + 1}
	}}
	withBad := append(synthPlans(), offByOne)
	for _, c := range []struct {
		name string
		run  func()
		want []string
	}{
		{"oracle 2-D", func() { run2D(synthPlans(), fr, fr, th, th, WithAdaptive(badOracle)) },
			[]string{"plan scan", "at (0,0)", "oracle says -7"}},
		{"oracle 1-D", func() { run1D(synthPlans(), fr, th, WithAdaptive(badOracle)) },
			[]string{"plan scan", "at point 0", "oracle says -7"}},
		{"rows 2-D", func() { run2D(withBad, fr, fr, th, th, WithAdaptive(DefaultAdaptiveConfig())) },
			[]string{"plan bad", "at (0,0)", "others"}},
		{"rows 1-D", func() { run1D(withBad, fr, th, WithAdaptive(DefaultAdaptiveConfig())) },
			[]string{"plan bad", "at point 0", "others"}},
	} {
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			c.run()
			return ""
		}()
		for _, w := range c.want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: panic %q does not contain %q", c.name, msg, w)
			}
		}
	}
}

func TestWinnerGridTiesBreakLow(t *testing.T) {
	m := &Map2D{
		TA: []int64{1}, TB: []int64{1},
		Plans: []string{"p0", "p1"},
		Times: [][][]time.Duration{{{5}}, {{5}}},
	}
	if w := m.WinnerGrid(); w[0][0] != 0 {
		t.Errorf("tie should go to the lowest plan index, got %d", w[0][0])
	}
}
