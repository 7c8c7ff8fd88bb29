package core

import (
	"context"
	"math"
	"testing"
	"time"
)

// synthetic plan: cost = base + perRow·rows(ta), counting rows = ta.
func linearPlan(id string, base, perRow time.Duration) PlanSource {
	return PlanSource{
		ID: id,
		Measure: func(ta, tb int64) Measurement {
			rows := ta
			if tb >= 0 && tb < rows {
				rows = tb
			}
			return Measurement{Time: base + perRow*time.Duration(rows), Rows: rows}
		},
	}
}

// flatPlan has constant cost regardless of the point.
func flatPlan(id string, cost time.Duration) PlanSource {
	return PlanSource{
		ID: id,
		Measure: func(ta, tb int64) Measurement {
			rows := ta
			if tb >= 0 && tb < rows {
				rows = tb
			}
			return Measurement{Time: cost, Rows: rows}
		},
	}
}

func fractionsAndThresholds(n int64, exps ...int) ([]float64, []int64) {
	var fr []float64
	var th []int64
	for _, k := range exps {
		fr = append(fr, 1/float64(int64(1)<<uint(k)))
		th = append(th, n>>uint(k))
	}
	return fr, th
}

func TestSweep1DBasics(t *testing.T) {
	fr, th := fractionsAndThresholds(1<<16, 8, 4, 2, 0)
	res, err := NewSweep([]PlanSource{
		flatPlan("scan", time.Second),
		linearPlan("index", 10*time.Millisecond, 100*time.Microsecond),
	}, Grid1D(fr, th)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Map2D != nil || res.Mesh1D != nil || res.Mesh2D != nil {
		t.Error("exhaustive 1-D sweep set result fields beyond Map1D")
	}
	m := res.Map1D
	if len(m.Plans) != 2 || m.Plans[0] != "scan" {
		t.Fatalf("plans = %v", m.Plans)
	}
	if m.Rows[0] != 1<<8 || m.Rows[3] != 1<<16 {
		t.Errorf("rows = %v", m.Rows)
	}
	scan := m.Series("scan")
	for _, ts := range scan {
		if ts != time.Second {
			t.Errorf("flat plan series = %v", scan)
			break
		}
	}
	best := m.BestTimes()
	// At small points the index wins; at the largest the scan wins.
	if best[0] != m.Series("index")[0] {
		t.Error("index should win at the smallest point")
	}
	if best[3] != time.Second {
		t.Error("scan should win at the largest point")
	}
	rel := m.Relative("scan")
	if rel[3] != 1 {
		t.Errorf("scan relative at winning point = %g, want 1", rel[3])
	}
	if rel[0] <= 1 {
		t.Errorf("scan relative at losing point = %g, want > 1", rel[0])
	}
}

func TestSweep1DRowMismatchPanics(t *testing.T) {
	bad := PlanSource{ID: "bad", Measure: func(ta, tb int64) Measurement {
		return Measurement{Time: time.Second, Rows: ta + 1}
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row mismatch")
		}
	}()
	fr, th := fractionsAndThresholds(1<<10, 2, 0)
	run1D([]PlanSource{flatPlan("ok", time.Second), bad}, fr, th)
}

func TestSweep2DAndRelative(t *testing.T) {
	fr, th := fractionsAndThresholds(1<<12, 6, 3, 0)
	m, _ := run2D([]PlanSource{
		flatPlan("scan", time.Second),
		linearPlan("idx", time.Millisecond, 500*time.Microsecond),
	}, fr, fr, th, th)
	if len(m.Times) != 2 || len(m.Times[0]) != 3 || len(m.Times[0][0]) != 3 {
		t.Fatal("grid shape wrong")
	}
	// rows(i,j) = min(ta, tb).
	if m.Rows[0][2] != th[0] || m.Rows[2][0] != th[0] {
		t.Errorf("rows grid = %v", m.Rows)
	}
	rel := m.RelativeGrid("scan")
	if rel[0][0] <= 1 {
		t.Error("scan should lose at the smallest point")
	}
	if rel[2][2] != 1 {
		t.Error("scan should win at the largest point")
	}
	if w := m.WorstQuotient("scan"); w != rel[0][0] {
		t.Errorf("WorstQuotient = %g, want %g", w, rel[0][0])
	}
}

func TestAbsoluteBins(t *testing.T) {
	b := DefaultAbsoluteBins()
	cases := []struct {
		t    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Microsecond, 0}, // below floor clamps
		{time.Millisecond, 0},
		{9 * time.Millisecond, 0},
		{10 * time.Millisecond, 1},
		{time.Second, 3},
		{90 * time.Second, 4},
		{900 * time.Second, 5},
		{9000 * time.Second, 5}, // above top clamps
	}
	for _, c := range cases {
		if got := b.Bin(c.t); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if b.Label(0) != "0.001-0.01 seconds" {
		t.Errorf("Label(0) = %q", b.Label(0))
	}
	if b.Label(5) != "100-1000 seconds" {
		t.Errorf("Label(5) = %q", b.Label(5))
	}
}

func TestRelativeBins(t *testing.T) {
	b := DefaultRelativeBins()
	cases := []struct {
		q    float64
		want int
	}{
		{1, 0}, {1.0005, 0}, {1.5, 1}, {9.9, 1}, {10, 2}, {99, 2},
		{101, 3}, {5000, 4}, {50000, 5}, {1e9, 5},
	}
	for _, c := range cases {
		if got := b.Bin(c.q); got != c.want {
			t.Errorf("Bin(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if b.Label(0) != "factor 1" {
		t.Errorf("Label(0) = %q", b.Label(0))
	}
	if b.Label(5) != "factor 10000-100000" {
		t.Errorf("Label(5) = %q", b.Label(5))
	}
}

func TestBinGrids(t *testing.T) {
	tg := [][]time.Duration{{time.Millisecond, time.Second}}
	if got := BinGridAbsolute(tg, DefaultAbsoluteBins()); got[0][0] != 0 || got[0][1] != 3 {
		t.Errorf("BinGridAbsolute = %v", got)
	}
	qg := [][]float64{{1, 500}}
	if got := BinGridRelative(qg, DefaultRelativeBins()); got[0][0] != 0 || got[0][1] != 3 {
		t.Errorf("BinGridRelative = %v", got)
	}
}

func TestLandmarksCleanCurve(t *testing.T) {
	// A flattening, monotone curve (like a table scan or improved scan in
	// its good region): no landmarks.
	rows := []int64{100, 200, 400, 800, 1600}
	times := []time.Duration{100, 190, 360, 680, 1300} // marginal decreasing
	if lm := FindLandmarks(rows, times, DefaultLandmarkConfig()); len(lm) != 0 {
		t.Errorf("clean curve produced landmarks: %v", lm)
	}
}

func TestLandmarksNonMonotonic(t *testing.T) {
	rows := []int64{100, 200, 400}
	times := []time.Duration{100, 80, 120} // dip at index 1
	lm := FindLandmarksOfKind(rows, times, DefaultLandmarkConfig(), NonMonotonic)
	if len(lm) != 1 || lm[0].Index != 1 {
		t.Errorf("landmarks = %v, want one non-monotonic at 1", lm)
	}
}

func TestLandmarksNonFlattening(t *testing.T) {
	// Marginal cost: 1.0, then 1.0, then 4.0 per row — steepening at the
	// last point, like the improved index scan's tail in Figure 1.
	rows := []int64{0, 100, 200, 300}
	times := []time.Duration{0, 100, 200, 600}
	lm := FindLandmarksOfKind(rows, times, DefaultLandmarkConfig(), NonFlattening)
	if len(lm) != 1 || lm[0].Index != 3 {
		t.Errorf("landmarks = %v, want one non-flattening at 3", lm)
	}
	if lm[0].Detail < 3.9 || lm[0].Detail > 4.1 {
		t.Errorf("detail = %g, want ~4", lm[0].Detail)
	}
}

func TestLandmarksDiscontinuity(t *testing.T) {
	// Sort spill cliff: work grows 1.01x, cost jumps 10x.
	rows := []int64{1000, 1010}
	times := []time.Duration{time.Second, 10 * time.Second}
	lm := FindLandmarksOfKind(rows, times, DefaultLandmarkConfig(), Discontinuity)
	if len(lm) != 1 {
		t.Fatalf("landmarks = %v, want one discontinuity", lm)
	}
}

func TestSummarizeCurve(t *testing.T) {
	rows := []int64{1, 2, 3}
	times := []time.Duration{10, 20, 40}
	st := SummarizeCurve(rows, times)
	if st.Min != 10 || st.Max != 40 || st.MaxOverMin != 4 {
		t.Errorf("stats = %+v", st)
	}
	if SummarizeCurve(nil, nil) != (CurveStats{}) {
		t.Error("empty curve stats not zero")
	}
}

func TestToleranceWithin(t *testing.T) {
	tol := Tolerance{Absolute: 100 * time.Millisecond, Relative: 1.01}
	cases := []struct {
		t, best time.Duration
		want    bool
	}{
		{time.Second, time.Second, true},
		{time.Second + 50*time.Millisecond, time.Second, true}, // absolute
		{time.Second + 9*time.Millisecond, time.Second, true},  // relative too
		{2 * time.Second, time.Second, false},
		{10 * time.Second, 10 * time.Second * 100 / 101, true}, // within 1%
	}
	for i, c := range cases {
		if got := tol.Within(c.t, c.best); got != c.want {
			t.Errorf("case %d: Within(%v, %v) = %v", i, c.t, c.best, got)
		}
	}
}

func TestOptimalityMapAndFigure10Property(t *testing.T) {
	fr, th := fractionsAndThresholds(1<<12, 4, 2, 0)
	// Two identical plans plus one always-worse plan: every point must
	// have exactly 2 optimal plans.
	m, _ := run2D([]PlanSource{
		flatPlan("p1", time.Second),
		flatPlan("p2", time.Second),
		flatPlan("slow", 10*time.Second),
	}, fr, fr, th, th)
	om := ComputeOptimality(m, Tolerance{Relative: 1.01})
	for _, row := range om.CountGrid() {
		for _, c := range row {
			if c != 2 {
				t.Fatalf("count grid has %d, want 2 everywhere", c)
			}
		}
	}
	if f := om.MultiOptimalFraction(2); f != 1 {
		t.Errorf("MultiOptimalFraction(2) = %g", f)
	}
	if f := om.MultiOptimalFraction(3); f != 0 {
		t.Errorf("MultiOptimalFraction(3) = %g", f)
	}
	region := om.PlanRegion("slow")
	for _, row := range region {
		for _, b := range row {
			if b {
				t.Fatal("slow plan has optimal points")
			}
		}
	}
}

func TestAnalyzeRegionShapes(t *testing.T) {
	// Full region: one component, area 1.
	full := [][]bool{{true, true}, {true, true}}
	st := AnalyzeRegion(full)
	if st.AreaFraction != 1 || st.Components != 1 || st.LargestComponentFraction != 1 {
		t.Errorf("full region stats = %+v", st)
	}

	// Two disconnected corners.
	corners := [][]bool{
		{true, false, false},
		{false, false, false},
		{false, false, true},
	}
	st = AnalyzeRegion(corners)
	if st.Components != 2 {
		t.Errorf("corners components = %d, want 2", st.Components)
	}
	if math.Abs(st.AreaFraction-2.0/9.0) > 1e-9 {
		t.Errorf("corners area = %g", st.AreaFraction)
	}
	if st.LargestComponentFraction != 0.5 {
		t.Errorf("corners largest fraction = %g", st.LargestComponentFraction)
	}

	// A ragged line is more irregular than a square blob.
	line := [][]bool{
		{true, true, true, true, true, true, true, true},
		{false, false, false, false, false, false, false, false},
		{false, false, false, false, false, false, false, false},
	}
	blob := [][]bool{
		{true, true, false, false, false, false, false, false},
		{true, true, false, false, false, false, false, false},
		{false, false, false, false, false, false, false, false},
	}
	if AnalyzeRegion(line).Irregularity <= AnalyzeRegion(blob).Irregularity {
		t.Error("line not more irregular than blob")
	}

	// Empty region.
	if st := AnalyzeRegion([][]bool{{false}}); st != (RegionStats{}) {
		t.Errorf("empty region stats = %+v", st)
	}
}

func TestSummarizeRelative(t *testing.T) {
	grid := [][]float64{
		{1, 1, 2, 5},
		{1, 20, 100, 1000},
	}
	s := SummarizeRelative(grid)
	if math.Abs(s.OptimalFraction-3.0/8.0) > 1e-9 {
		t.Errorf("OptimalFraction = %g", s.OptimalFraction)
	}
	if math.Abs(s.WithinFactor10-5.0/8.0) > 1e-9 {
		t.Errorf("WithinFactor10 = %g", s.WithinFactor10)
	}
	if s.Worst != 1000 {
		t.Errorf("Worst = %g", s.Worst)
	}
	if s.P95 < 100 || s.P95 > 1000 {
		t.Errorf("P95 = %g", s.P95)
	}
	if SummarizeRelative(nil) != (RobustnessSummary{}) {
		t.Error("empty summary not zero")
	}
}
