package core

import (
	"testing"
	"time"
)

func scoreTestMap() *Map2D {
	fr := []float64{0.25, 0.5, 1}
	th := []int64{256, 512, 1024}
	m, _ := run2D([]PlanSource{
		flatPlan("steady", 2*time.Second),                          // never best, never awful
		linearPlan("spiky", time.Millisecond, 10*time.Millisecond), // great small, terrible large
		flatPlan("awful", 60*time.Second),                          // always the worst
	}, fr, fr, th, th)
	return m
}

func TestScoreboardOrdersByRobustness(t *testing.T) {
	m := scoreTestMap()
	board := Scoreboard(m, []string{"steady", "spiky", "awful"})
	if len(board) != 3 {
		t.Fatalf("board has %d entries", len(board))
	}
	pos := map[string]int{}
	for i, s := range board {
		pos[s.Plan] = i
	}
	if pos["awful"] != 2 {
		t.Errorf("awful plan not last: %v", board)
	}
	for _, s := range board {
		if s.Score < 0 || s.Score > 1 {
			t.Errorf("%s score %g out of [0,1]", s.Plan, s.Score)
		}
	}
	// The awful plan has mean danger 1 (always worst) and a big worst
	// factor; its score must be well below the others.
	if board[2].Score >= board[0].Score/2 {
		t.Errorf("awful score %g not well below best %g", board[2].Score, board[0].Score)
	}
}

func TestScoreFromMonotonicity(t *testing.T) {
	base := ScoreFrom(RobustnessSummary{OptimalFraction: 0.5, WithinFactor10: 0.8, Worst: 10},
		DangerSummary{MeanDanger: 0.2})
	worse := ScoreFrom(RobustnessSummary{OptimalFraction: 0.5, WithinFactor10: 0.8, Worst: 1000},
		DangerSummary{MeanDanger: 0.2})
	if worse >= base {
		t.Error("larger worst factor did not lower the score")
	}
	dangerous := ScoreFrom(RobustnessSummary{OptimalFraction: 0.5, WithinFactor10: 0.8, Worst: 10},
		DangerSummary{MeanDanger: 0.9})
	if dangerous >= base {
		t.Error("higher mean danger did not lower the score")
	}
	if ScoreFrom(RobustnessSummary{OptimalFraction: 1, WithinFactor10: 1, Worst: 0.5},
		DangerSummary{}) != 1 {
		t.Error("perfect plan should score 1 (worst clamps at 1)")
	}
}

func TestCompareScoreboards(t *testing.T) {
	before := []PlanScore{{Plan: "p1", Score: 0.9}, {Plan: "p2", Score: 0.5}, {Plan: "gone", Score: 0.4}}
	after := []PlanScore{{Plan: "p1", Score: 0.9}, {Plan: "p2", Score: 0.3}, {Plan: "new", Score: 0.1}}
	got := CompareScoreboards(before, after, 0.05)
	if len(got) != 1 || got[0] != "p2" {
		t.Errorf("regressions = %v, want [p2]", got)
	}
	// Within tolerance: no alarm.
	after[1].Score = 0.48
	if got := CompareScoreboards(before, after, 0.05); len(got) != 0 {
		t.Errorf("tolerated drop flagged: %v", got)
	}
}
