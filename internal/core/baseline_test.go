package core

import (
	"testing"
	"time"
)

func baselineTestMap() *Map2D {
	fr := []float64{0.5, 1}
	th := []int64{512, 1024}
	m, _ := run2D([]PlanSource{
		flatPlan("p1", 2*time.Second),
		flatPlan("p2", 4*time.Second),
		flatPlan("p3", time.Second), // global best, excluded from pool below
	}, fr, fr, th, th)
	return m
}

func TestBestGridOverSubset(t *testing.T) {
	m := baselineTestMap()
	best := m.BestGridOver([]string{"p1", "p2"})
	for i := range best {
		for j := range best[i] {
			if best[i][j] != 2*time.Second {
				t.Fatalf("best[%d][%d] = %v, want 2s", i, j, best[i][j])
			}
		}
	}
}

func TestBestGridOverEmptyPanics(t *testing.T) {
	m := baselineTestMap()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.BestGridOver(nil)
}

func TestRelativeGridAgainstClampsAtOne(t *testing.T) {
	m := baselineTestMap()
	// p3 beats the pool everywhere: quotient clamps to 1 (the paper's
	// relative scale starts at factor 1).
	rel := m.RelativeGridAgainst("p3", []string{"p1", "p2"})
	for i := range rel {
		for j := range rel[i] {
			if rel[i][j] != 1 {
				t.Errorf("rel[%d][%d] = %g, want 1", i, j, rel[i][j])
			}
		}
	}
	// p2 is 2x the pool best.
	rel = m.RelativeGridAgainst("p2", []string{"p1", "p2"})
	for i := range rel {
		for j := range rel[i] {
			if rel[i][j] != 2 {
				t.Errorf("p2 rel[%d][%d] = %g, want 2", i, j, rel[i][j])
			}
		}
	}
}

func TestRelativeGridAgainstUnknownPlanPanics(t *testing.T) {
	m := baselineTestMap()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.RelativeGridAgainst("nope", []string{"p1"})
}

func TestSubMap(t *testing.T) {
	m := baselineTestMap()
	sub := m.SubMap([]string{"p2", "p3"})
	if len(sub.Plans) != 2 || sub.Plans[0] != "p2" {
		t.Fatalf("SubMap plans = %v", sub.Plans)
	}
	best := sub.BestGrid()
	if best[0][0] != time.Second { // p3 is the best in the subset
		t.Errorf("sub best = %v", best[0][0])
	}
	defer func() {
		if recover() == nil {
			t.Error("empty SubMap did not panic")
		}
	}()
	m.SubMap(nil)
}
