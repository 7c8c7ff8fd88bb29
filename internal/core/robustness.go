// Package core implements the paper's primary contribution: robustness
// maps. A robustness map records the measured execution time of one or
// more fixed query execution plans over a one- or two-dimensional
// parameter space (predicate selectivities, in the paper's experiments)
// and supports the analyses the paper performs on such maps:
//
//   - absolute maps with order-of-magnitude color bins (Figures 1, 4, 5;
//     color code of Figure 3),
//   - relative-performance maps against the best plan per point
//     (Figures 2, 7, 8, 9; color code of Figure 6),
//   - landmark detection: non-monotonic cost, non-flattening cost growth,
//     and discontinuities (§3.1),
//   - optimality regions with tolerance, their sizes, connected
//     components, and irregularity (§3.4, Figure 10).
//
// The package is deliberately independent of the engine: measurements
// arrive through a MeasureFunc, so maps can be built from the simulated
// systems, from synthetic analytic cost models (as the unit tests do), or
// in principle from a real database.
package core

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Measurement is one observed plan execution.
type Measurement struct {
	Time time.Duration
	Rows int64
}

// MeasureFunc runs a plan at one parameter point. For 1-D sweeps tb is
// negative (no second predicate).
type MeasureFunc func(ta, tb int64) Measurement

// PlanSource is a named measurable plan.
type PlanSource struct {
	ID      string
	Measure MeasureFunc
}

// Map1D is a one-dimensional robustness map: len(Thresholds) points per
// plan, swept over the first predicate only.
type Map1D struct {
	// Fractions are the selectivity fractions of the sweep (x axis).
	Fractions []float64
	// Thresholds are the corresponding predicate thresholds.
	Thresholds []int64
	// Plans lists the plan ids in sweep order.
	Plans []string
	// Times[p][i] is plan p's execution time at point i.
	Times [][]time.Duration
	// Rows[i] is the query result size at point i (identical across
	// plans; verified during the sweep).
	Rows []int64
}

// Series returns the time series for the named plan.
func (m *Map1D) Series(planID string) []time.Duration {
	for i, p := range m.Plans {
		if p == planID {
			return m.Times[i]
		}
	}
	panic(fmt.Sprintf("core: no plan %q in map", planID))
}

// BestTimes returns, per point, the minimum time across plans.
func (m *Map1D) BestTimes() []time.Duration {
	best := make([]time.Duration, len(m.Thresholds))
	for i := range best {
		best[i] = m.Times[0][i]
		for _, ts := range m.Times[1:] {
			if ts[i] < best[i] {
				best[i] = ts[i]
			}
		}
	}
	return best
}

// Relative returns plan p's per-point quotient against the best plan —
// the y axis of Figure 2.
func (m *Map1D) Relative(planID string) []float64 {
	best := m.BestTimes()
	series := m.Series(planID)
	out := make([]float64, len(series))
	for i := range series {
		out[i] = quotient(series[i], best[i])
	}
	return out
}

// Map2D is a two-dimensional robustness map over (ta, tb).
type Map2D struct {
	// FracA and FracB are the axis selectivity fractions.
	FracA, FracB []float64
	// TA and TB are the axis thresholds.
	TA, TB []int64
	// Plans lists plan ids.
	Plans []string
	// Times[p][i][j] is plan p's time at (TA[i], TB[j]).
	Times [][][]time.Duration
	// Rows[i][j] is the result size at (TA[i], TB[j]).
	Rows [][]int64
}

// sweep2D is the exhaustive sweep of g under a context: every plan is
// measured at every grid point on the given executor. Plans must agree on
// result sizes at each point — a disagreement means a broken plan, and
// panics rather than producing a silently wrong map. The map's contents
// are identical for every executor: results land in preallocated
// (plan, point) slots, and the row-count cross-check runs in a fixed order
// after all cells complete, so the panic (if any) names the same first
// offender the serial sweep names.
func sweep2D(ctx context.Context, ex SweepExecutor, plans []PlanSource, g grid) *Map2D {
	fracA, fracB, ta, tb := g.fracA, g.fracB, g.ta, g.tb
	points := len(ta) * len(tb)
	m := &Map2D{
		FracA: fracA, FracB: fracB, TA: ta, TB: tb,
		Plans: make([]string, len(plans)),
		Times: make([][][]time.Duration, len(plans)),
	}
	m.Rows = make([][]int64, len(ta))
	for i := range m.Rows {
		m.Rows[i] = make([]int64, len(tb))
	}
	rows := make([][]int64, len(plans))
	for pi, p := range plans {
		m.Plans[pi] = p.ID
		grid := make([][]time.Duration, len(ta))
		for i := range grid {
			grid[i] = make([]time.Duration, len(tb))
		}
		m.Times[pi] = grid
		rows[pi] = make([]int64, points)
	}
	executeCells(ctx, ex, len(plans)*points, func(cell int) {
		pi, pt := cellSplit(cell, points)
		i, j := pt/len(tb), pt%len(tb)
		res := plans[pi].Measure(ta[i], tb[j])
		m.Times[pi][i][j] = res.Time
		rows[pi][pt] = res.Rows
	})
	if len(plans) > 0 {
		for i := range m.Rows {
			for j := range m.Rows[i] {
				m.Rows[i][j] = rows[0][i*len(tb)+j]
			}
		}
	}
	crossCheckRows(plans, points,
		func(pi, pt int) int64 { return rows[pi][pt] },
		func(pt int) string { return g.label(pt/len(tb), pt%len(tb)) })
	return m
}

// PlanGrid returns the time grid for the named plan.
func (m *Map2D) PlanGrid(planID string) [][]time.Duration {
	for i, p := range m.Plans {
		if p == planID {
			return m.Times[i]
		}
	}
	panic(fmt.Sprintf("core: no plan %q in map", planID))
}

// BestGridOver returns, per point, the minimum time across the named
// subset of plans — the baseline pool. Figure 7's caption defines its
// baseline as "the best of seven plans" (System A's pool), which is a
// subset of the full 13-plan study.
func (m *Map2D) BestGridOver(planIDs []string) [][]time.Duration {
	var grids [][][]time.Duration
	for _, id := range planIDs {
		grids = append(grids, m.PlanGrid(id))
	}
	if len(grids) == 0 {
		panic("core: empty baseline pool")
	}
	best := make([][]time.Duration, len(m.TA))
	for i := range best {
		best[i] = make([]time.Duration, len(m.TB))
		for j := range best[i] {
			best[i][j] = grids[0][i][j]
			for _, g := range grids[1:] {
				if g[i][j] < best[i][j] {
					best[i][j] = g[i][j]
				}
			}
		}
	}
	return best
}

// RelativeGridAgainst returns plan p's per-point quotient against the best
// of the given baseline pool. Quotients below 1 (the plan beats every
// baseline plan) are reported as 1: the paper's relative scale starts at
// "factor 1".
func (m *Map2D) RelativeGridAgainst(planID string, baseline []string) [][]float64 {
	best := m.BestGridOver(baseline)
	grid := m.PlanGrid(planID)
	out := make([][]float64, len(grid))
	for i := range grid {
		out[i] = make([]float64, len(grid[i]))
		for j := range grid[i] {
			q := quotient(grid[i][j], best[i][j])
			if q < 1 {
				q = 1
			}
			out[i][j] = q
		}
	}
	return out
}

// SubMap returns a view of the map restricted to the named plans (shared
// underlying grids). Used to analyze optimality within one system's plan
// pool, as the paper does for Figure 7's "best of seven plans".
func (m *Map2D) SubMap(planIDs []string) *Map2D {
	sub := &Map2D{FracA: m.FracA, FracB: m.FracB, TA: m.TA, TB: m.TB, Rows: m.Rows}
	for _, id := range planIDs {
		sub.Plans = append(sub.Plans, id)
		sub.Times = append(sub.Times, m.PlanGrid(id))
	}
	if len(sub.Plans) == 0 {
		panic("core: empty SubMap")
	}
	return sub
}

// BestGrid returns, per point, the minimum time across all plans.
func (m *Map2D) BestGrid() [][]time.Duration {
	best := make([][]time.Duration, len(m.TA))
	for i := range best {
		best[i] = make([]time.Duration, len(m.TB))
		for j := range best[i] {
			best[i][j] = m.Times[0][i][j]
			for _, g := range m.Times[1:] {
				if g[i][j] < best[i][j] {
					best[i][j] = g[i][j]
				}
			}
		}
	}
	return best
}

// RelativeGrid returns plan p's per-point quotient against the best plan —
// the data of Figures 7, 8, and 9.
func (m *Map2D) RelativeGrid(planID string) [][]float64 {
	best := m.BestGrid()
	grid := m.PlanGrid(planID)
	out := make([][]float64, len(grid))
	for i := range grid {
		out[i] = make([]float64, len(grid[i]))
		for j := range grid[i] {
			out[i][j] = quotient(grid[i][j], best[i][j])
		}
	}
	return out
}

// WinnerGrid returns, per point, the index of the cheapest plan (ties
// break toward the lowest plan index). This is the map the paper's region
// boundaries trace, and the grid the adaptive sweeper must reproduce
// exactly.
func (m *Map2D) WinnerGrid() [][]int {
	out := make([][]int, len(m.TA))
	for i := range out {
		out[i] = make([]int, len(m.TB))
		for j := range out[i] {
			w := 0
			for p := 1; p < len(m.Plans); p++ {
				if m.Times[p][i][j] < m.Times[w][i][j] {
					w = p
				}
			}
			out[i][j] = w
		}
	}
	return out
}

// GridLandmark is one landmark found on a 2-D map: a 1-D landmark on the
// slice of the named plan's grid obtained by fixing one axis index.
type GridLandmark struct {
	Plan string
	// Axis is 0 when the landmark lies on a row slice (TA fixed at Fixed,
	// TB varying) and 1 on a column slice (TB fixed, TA varying).
	Axis  int
	Fixed int
	Landmark
}

// LandmarkGrid runs §3.1 landmark detection over every row and column
// slice of the named plan's grid, in deterministic order: all row slices
// first, then all column slices, landmarks in point order within each.
func (m *Map2D) LandmarkGrid(planID string, cfg LandmarkConfig) []GridLandmark {
	grid := m.PlanGrid(planID)
	var out []GridLandmark
	for i := range m.TA {
		for _, l := range FindLandmarks(m.Rows[i], grid[i], cfg) {
			out = append(out, GridLandmark{Plan: planID, Axis: 0, Fixed: i, Landmark: l})
		}
	}
	rows := make([]int64, len(m.TA))
	times := make([]time.Duration, len(m.TA))
	for j := range m.TB {
		for i := range m.TA {
			rows[i] = m.Rows[i][j]
			times[i] = grid[i][j]
		}
		for _, l := range FindLandmarks(rows, times, cfg) {
			out = append(out, GridLandmark{Plan: planID, Axis: 1, Fixed: j, Landmark: l})
		}
	}
	return out
}

// WorstQuotient returns the plan's maximum quotient over the grid — the
// paper's headline number for Figure 7 is "a factor of 101,000".
func (m *Map2D) WorstQuotient(planID string) float64 {
	worst := 0.0
	for _, row := range m.RelativeGrid(planID) {
		for _, q := range row {
			if q > worst {
				worst = q
			}
		}
	}
	return worst
}

// quotient computes t/best defensively.
func quotient(t, best time.Duration) float64 {
	if best <= 0 {
		if t <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(t) / float64(best)
}
