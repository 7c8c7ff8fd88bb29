package core

import "time"

// Mesh1D records which cells of an adaptive 1-D sweep were measured.
type Mesh1D struct {
	// PlanPoints[p][i] reports whether plan p was measured at point i.
	PlanPoints [][]bool
	// Points[i] reports whether any plan was measured at point i.
	Points []bool
	// MeasuredCells counts performed measurements; TotalCells is the
	// exhaustive count.
	MeasuredCells, TotalCells int
	// Rounds is the number of measurement rounds (executor barriers).
	Rounds int
}

// MeasuredFraction is MeasuredCells / TotalCells.
func (me *Mesh1D) MeasuredFraction() float64 {
	if me.TotalCells == 0 {
		return 0
	}
	return float64(me.MeasuredCells) / float64(me.TotalCells)
}

// project1D lowers the result of a sweep over a collapsed B axis (one
// point, tb = -1) onto the 1-D wire types: column 0 of every grid. The
// mesh is nil for exhaustive sweeps; Mesh1D has no per-phase breakdown, so
// the 2-D mesh's is dropped.
func project1D(m *Map2D, me *Mesh2D) (*Map1D, *Mesh1D) {
	m1 := &Map1D{
		Fractions:  m.FracA,
		Thresholds: m.TA,
		Plans:      m.Plans,
		Times:      make([][]time.Duration, len(m.Times)),
		Rows:       column0(m.Rows),
	}
	for p, grid := range m.Times {
		m1.Times[p] = column0(grid)
	}
	if me == nil {
		return m1, nil
	}
	me1 := &Mesh1D{
		PlanPoints:    make([][]bool, len(me.PlanPoints)),
		Points:        column0(me.Points),
		MeasuredCells: me.MeasuredCells,
		TotalCells:    me.TotalCells,
		Rounds:        me.Rounds,
	}
	for p, grid := range me.PlanPoints {
		me1.PlanPoints[p] = column0(grid)
	}
	return m1, me1
}

// column0 returns the first column of a grid.
func column0[T any](grid [][]T) []T {
	out := make([]T, len(grid))
	for i, row := range grid {
		out[i] = row[0]
	}
	return out
}
