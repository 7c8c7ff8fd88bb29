package core

import (
	"math"
	"testing"
	"time"
)

func worstTestMap() *Map2D {
	fr := []float64{0.25, 0.5, 1}
	th := []int64{256, 512, 1024}
	m, _ := run2D([]PlanSource{
		flatPlan("fast", time.Second),
		flatPlan("slow", 10*time.Second),
		linearPlan("mid", time.Second, 3*time.Millisecond),
	}, fr, fr, th, th)
	return m
}

func TestWorstGrid(t *testing.T) {
	m := worstTestMap()
	worst := m.WorstGrid()
	for i := range worst {
		for j := range worst[i] {
			if worst[i][j] != 10*time.Second {
				t.Fatalf("worst[%d][%d] = %v, want 10s", i, j, worst[i][j])
			}
		}
	}
}

func TestDangerGrid(t *testing.T) {
	m := worstTestMap()
	dSlow := m.DangerGrid("slow")
	dFast := m.DangerGrid("fast")
	for i := range dSlow {
		for j := range dSlow[i] {
			if dSlow[i][j] != 1 {
				t.Errorf("slow danger[%d][%d] = %g, want 1", i, j, dSlow[i][j])
			}
			if math.Abs(dFast[i][j]-0.1) > 1e-9 {
				t.Errorf("fast danger[%d][%d] = %g, want 0.1", i, j, dFast[i][j])
			}
		}
	}
}

func TestSummarizeDanger(t *testing.T) {
	m := worstTestMap()
	sSlow := SummarizeDanger(m.DangerGrid("slow"))
	if sSlow.WorstAtFraction != 1 || sSlow.MaxDanger != 1 {
		t.Errorf("slow summary = %+v", sSlow)
	}
	sFast := SummarizeDanger(m.DangerGrid("fast"))
	if sFast.WorstAtFraction != 0 {
		t.Errorf("fast plan marked worst somewhere: %+v", sFast)
	}
	if math.Abs(sFast.MeanDanger-0.1) > 1e-9 {
		t.Errorf("fast mean danger = %g", sFast.MeanDanger)
	}
	if SummarizeDanger(nil) != (DangerSummary{}) {
		t.Error("empty summary not zero")
	}
}

func TestHeadroomGrid(t *testing.T) {
	m := worstTestMap()
	hr := m.HeadroomGrid()
	for i := range hr {
		for j := range hr[i] {
			// best is min(1s, 10s, 1s + 3ms*rows); worst is 10s.
			want := 10.0
			best := math.Min(1, 1+0.003*float64(m.Rows[i][j]))
			_ = best
			if hr[i][j] > want+1e-9 || hr[i][j] < 1 {
				t.Errorf("headroom[%d][%d] = %g", i, j, hr[i][j])
			}
		}
	}
	// At the smallest point best = 1s, so headroom = 10 exactly.
	if math.Abs(hr[0][0]-10) > 1e-9 {
		t.Errorf("headroom at origin = %g, want 10", hr[0][0])
	}
}
