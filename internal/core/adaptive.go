package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// Adaptive multi-resolution sweeps.
//
// The paper's robustness maps are dominated by large constant-winner
// regions separated by sharp landmark boundaries (the diagonal structure
// of Figures 4–9). An exhaustive sweep spends almost all of its
// measurements inside those regions, where every cell says what its
// neighbors already said. The adaptive sweeper exploits that structure:
//
//  1. a coarse pass measures every plan on a subsampled lattice,
//  2. blocks split quadtree-style — down to full resolution where needed —
//     wherever the winning plan changes across their corners, or a plan's
//     measured split points cannot be reproduced by any of three
//     interpolation models validated against held-out measurements
//     (bilinear in selectivity fractions, geometric on the log axes, and
//     a biquadratic patch over the parent lattice),
//  3. two stabilization passes then pin the derived maps to measurements:
//     every landmark the map-scale detector sees is re-anchored on
//     measured cells, and every winner within the guard band of a region
//     boundary is measured directly,
//  4. everything else is filled per plan from the model that fit.
//
// Refinement is per plan: a table scan that costs the same everywhere
// drops out after the coarse pass, while the plans fighting over a region
// boundary are measured at full resolution along it.
//
// One refiner serves both dimensionalities. A 1-D sweep is the mesh over a
// collapsed B axis (one point, tb = -1; see grid): blocks are intervals,
// a block's four corners are its two ends, its split point is a corner of
// both children, the guard band and the landmark pass look along A only,
// and every model interpolates along A alone. Sweep.Run projects the
// result onto Map1D/Mesh1D.
//
// Determinism contract: every *measured* cell holds exactly the value the
// exhaustive sweep measures (same MeasureFunc, same arguments), the set of
// measured cells depends only on measured values (not on scheduling), and
// rounds are executor barriers — so adaptive sweeps are bit-for-bit
// reproducible at any worker count, and row-count cross-checks behave as
// in the exhaustive sweeps. Filled cells are interpolations; the
// equivalence tests pin that the derived winner grids, Rows grids, and
// map-scale landmark sets match the exhaustive sweep's exactly on the
// paper's 13-plan study.

// AdaptiveConfig tunes the adaptive sweeper.
type AdaptiveConfig struct {
	// CoarseLevels is the forced refinement depth of the initial pass:
	// every block splits unconditionally until this depth, giving the
	// coarse lattice the adaptive phase starts from. Depth d yields a
	// roughly (2^d+1)-point-per-axis lattice.
	CoarseLevels int
	// GuardBand hardens detected winner boundaries: after refinement
	// converges, every cell within GuardBand lattice steps (Chebyshev) of
	// a winner change gets the two flanking winners measured directly,
	// iterating until no near-boundary winner rests on an interpolated
	// value. Zero disables the pass.
	GuardBand int
	// RelTol and AbsTol bound the interpolation error a plan may show at a
	// block's split points before the plan is considered rough there and
	// kept at finer resolutions. A measured value m deviating from the
	// corner interpolation by more than AbsTol + RelTol*m triggers.
	RelTol float64
	// AbsTol is the absolute component of the error bound.
	AbsTol time.Duration
	// ContenderFactor keeps plans within this factor of a corner's best
	// time measured inside winner-boundary blocks; plans further out are
	// interpolated even there. Values below 1 keep every plan.
	ContenderFactor float64
	// Landmarks is the landmark detector the sweep stabilizes against:
	// after refinement, every landmark the detector finds on the filled
	// map is re-anchored by measuring the cells it rests on, iterating
	// until no landmark depends on an interpolated value. The zero value
	// means MapLandmarkConfig(). Equivalence with the exhaustive sweep's
	// landmark map holds at this detector's granularity.
	Landmarks LandmarkConfig
	// ResultSize, when set, supplies the exact query result size at a
	// point (tb < 0 for 1-D sweeps). Measured cells are cross-checked
	// against it and skipped cells take their Rows value from it, keeping
	// the Rows grid byte-identical to the exhaustive sweep's. When nil,
	// skipped cells interpolate Rows from measured corners.
	ResultSize func(ta, tb int64) int64
}

// DefaultAdaptiveConfig returns the tolerances used by the study: a
// two-level coarse pass, a one-cell guard band, a 30% interpolation
// tolerance (genuine regime changes in the cost surfaces are far larger,
// sub-bin texture is invisible on the maps, and the stabilization passes
// — not the fill — carry the winner/landmark equivalence contract), a
// tight contender net around region boundaries, and map-scale landmark
// stabilization. On the paper's 13-plan 2-D study these settings measure
// about 37% of the exhaustive sweep's cells while reproducing its winner
// grid, Rows grid, and map-scale landmark sets exactly.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		CoarseLevels:    2,
		GuardBand:       1,
		RelTol:          0.30,
		AbsTol:          2 * time.Millisecond,
		ContenderFactor: 1.25,
		Landmarks:       MapLandmarkConfig(),
	}
}

// Mesh2D records which cells of an adaptive 2-D sweep were measured and
// which were filled — the refinement mesh.
type Mesh2D struct {
	// PlanPoints[p][i][j] reports whether plan p was measured at (i, j).
	PlanPoints [][][]bool
	// Points[i][j] reports whether any plan was measured at (i, j).
	Points [][]bool
	// MeasuredCells counts performed (plan, point) measurements;
	// TotalCells is what the exhaustive sweep would perform.
	MeasuredCells, TotalCells int
	// RefineCells, LandmarkCells, and GuardCells break MeasuredCells down
	// by phase: quadtree refinement (including the coarse pass), landmark
	// stabilization, and the winner-boundary guard band.
	RefineCells, LandmarkCells, GuardCells int
	// Rounds is the number of measurement rounds (executor barriers).
	Rounds int
}

// MeasuredFraction is MeasuredCells / TotalCells.
func (me *Mesh2D) MeasuredFraction() float64 {
	if me.TotalCells == 0 {
		return 0
	}
	return float64(me.MeasuredCells) / float64(me.TotalCells)
}

// adaptive2D is the in-flight state of one adaptive 2-D sweep.
type adaptive2D struct {
	ctx   context.Context
	ex    SweepExecutor
	plans []PlanSource
	grid
	cfg AdaptiveConfig

	n, m    int                 // grid points per axis
	times   [][][]time.Duration // [p][i][j]
	rows    [][]int64
	rowsSet [][]bool
	// rowEst memoizes rowAt estimates for unmeasured points (the oracle
	// is a table scan per call); -1 = not yet computed.
	rowEst   [][]int64
	measured [][][]bool  // [p][i][j]
	fillBlk  [][][]int   // [p][i][j]: block id to interpolate p from, -1 = none
	fillMode [][][]uint8 // [p][i][j]: interpolation model for the fill block
	blocks   []aBlock
	rounds   int
	cells    int
	// phase points at the mesh counter charged for the current
	// measurement round.
	phase                                  *int
	refineCells, landmarkCells, guardCells int
}

// aBlock is one node of the shared refinement tree. active[p] marks plans
// still being measured inside the block; parent is the block it was split
// from (-1 at the root).
type aBlock struct {
	i0, i1, j0, j1 int
	depth          int
	parent         int
	active         []bool
}

// adaptiveSweep2D measures an adaptive multi-resolution sweep of g on the
// given executor. The returned map has every plan's full grid — measured
// where the mesh refined, interpolated elsewhere — and the mesh reports
// which was which. Grids too small to subsample (under 3 points on either
// axis) fall back to the exhaustive sweep; the one-point B axis of a 1-D
// sweep is not an axis to subsample, so only its A axis counts. Grid
// lengths are validated by NewSweep.
func adaptiveSweep2D(ctx context.Context, ex SweepExecutor, plans []PlanSource,
	g grid, cfg AdaptiveConfig) (*Map2D, *Mesh2D) {
	n, m := len(g.ta), len(g.tb)
	if n < 3 || (m < 3 && g.dims != 1) || len(plans) == 0 {
		mp := sweep2D(ctx, ex, plans, g)
		return mp, exhaustiveMesh2D(len(plans), n, m)
	}
	if cfg.CoarseLevels < 1 {
		cfg.CoarseLevels = 1
	}
	if cfg.Landmarks == (LandmarkConfig{}) {
		cfg.Landmarks = MapLandmarkConfig()
	}
	s := &adaptive2D{ctx: ctx, ex: ex, plans: plans, grid: g, cfg: cfg, n: n, m: m}
	s.times = make([][][]time.Duration, len(plans))
	s.measured = make([][][]bool, len(plans))
	s.fillBlk = make([][][]int, len(plans))
	s.fillMode = make([][][]uint8, len(plans))
	for p := range plans {
		s.times[p] = makeDurGrid(n, m)
		s.measured[p] = makeBoolGrid(n, m)
		s.fillBlk[p] = makeIntGrid(n, m, -1)
		s.fillMode[p] = make([][]uint8, n)
		for i := range s.fillMode[p] {
			s.fillMode[p][i] = make([]uint8, m)
		}
	}
	s.rows = make([][]int64, n)
	s.rowsSet = makeBoolGrid(n, m)
	for i := range s.rows {
		s.rows[i] = make([]int64, m)
	}
	s.rowEst = makeInt64Grid(n, m, -1)
	s.run()
	return s.finish()
}

func makeDurGrid(n, m int) [][]time.Duration {
	g := make([][]time.Duration, n)
	for i := range g {
		g[i] = make([]time.Duration, m)
	}
	return g
}

func makeBoolGrid(n, m int) [][]bool {
	g := make([][]bool, n)
	for i := range g {
		g[i] = make([]bool, m)
	}
	return g
}

func makeInt64Grid(n, m int, v int64) [][]int64 {
	g := make([][]int64, n)
	for i := range g {
		g[i] = make([]int64, m)
		for j := range g[i] {
			g[i][j] = v
		}
	}
	return g
}

func makeIntGrid(n, m, v int) [][]int {
	g := make([][]int, n)
	for i := range g {
		g[i] = make([]int, m)
		for j := range g[i] {
			g[i][j] = v
		}
	}
	return g
}

func exhaustiveMesh2D(plans, n, m int) *Mesh2D {
	me := &Mesh2D{
		PlanPoints:    make([][][]bool, plans),
		Points:        makeBoolGrid(n, m),
		MeasuredCells: plans * n * m,
		TotalCells:    plans * n * m,
		RefineCells:   plans * n * m, // exhaustive fallback: all refine-phase
		Rounds:        1,
	}
	for p := range me.PlanPoints {
		me.PlanPoints[p] = makeBoolGrid(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				me.PlanPoints[p][i][j] = true
				me.Points[i][j] = true
			}
		}
	}
	return me
}

// request is one round's measurement demand: which plans need which point.
type request struct {
	i, j  int
	plans []int // sorted plan indexes
}

// measureRound executes one batch of (plan, point) measurements on the
// executor, then records and cross-checks the results in deterministic
// point-major order.
func (s *adaptive2D) measureRound(wants map[[2]int][]bool) {
	var reqs []request
	for pt, mask := range wants {
		var ps []int
		for p, want := range mask {
			if want && !s.measured[p][pt[0]][pt[1]] {
				ps = append(ps, p)
			}
		}
		if len(ps) > 0 {
			sort.Ints(ps)
			reqs = append(reqs, request{i: pt[0], j: pt[1], plans: ps})
		}
	}
	if len(reqs) == 0 {
		return
	}
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].i != reqs[b].i {
			return reqs[a].i < reqs[b].i
		}
		return reqs[a].j < reqs[b].j
	})
	// Flatten to cells. cellOf[k] = (request index, plan slot).
	type cellRef struct{ req, slot int }
	var cellOf []cellRef
	for ri, r := range reqs {
		for slot := range r.plans {
			cellOf = append(cellOf, cellRef{req: ri, slot: slot})
		}
	}
	got := make([]Measurement, len(cellOf))
	executeCells(s.ctx, s.ex, len(cellOf), func(cell int) {
		ref := cellOf[cell]
		r := reqs[ref.req]
		got[cell] = s.plans[r.plans[ref.slot]].Measure(s.ta[r.i], s.tb[r.j])
	})
	s.rounds++
	s.cells += len(cellOf)
	if s.phase != nil {
		*s.phase += len(cellOf)
	}
	// Record + cross-check serially, in point-major, plan-minor order, so
	// a row-count disagreement names the same first offender at any
	// worker count.
	for ci, ref := range cellOf {
		r := reqs[ref.req]
		p := r.plans[ref.slot]
		res := got[ci]
		s.times[p][r.i][r.j] = res.Time
		s.measured[p][r.i][r.j] = true
		if !s.rowsSet[r.i][r.j] {
			want := res.Rows
			if s.cfg.ResultSize != nil {
				want = s.cfg.ResultSize(s.ta[r.i], s.tb[r.j])
			}
			if res.Rows != want {
				panic(fmt.Sprintf("core: plan %s returned %d rows at %s, result-size oracle says %d",
					s.plans[p].ID, res.Rows, s.label(r.i, r.j), want))
			}
			s.rows[r.i][r.j] = want
			s.rowsSet[r.i][r.j] = true
		} else if res.Rows != s.rows[r.i][r.j] {
			panic(fmt.Sprintf("core: plan %s returned %d rows at %s, others %d",
				s.plans[p].ID, res.Rows, s.label(r.i, r.j), s.rows[r.i][r.j]))
		}
	}
}

// Interpolation models. The engine's smooth cost stretches come in three
// shapes: sums of per-term costs t ≈ c0 + c1·fa + c2·fb + c3·fa·fb,
// which are exactly bilinear in the selectivity fractions (modeFrac);
// power-law stretches t ≈ c·rows^α, which are exactly linear in
// (log t, grid index) coordinates since the axes are log-selectivity
// (modeLog); and gently curved mixtures of the two (buffer-pool and
// batching effects), which a biquadratic patch over the parent block's
// 3×3 lattice tracks to third order (modeQuad — validated on the block's
// own split points, which the parent lattice does not contain). The
// sweeper fits every model at every split point and lets a plan drop out
// of a block when any fits; the fill remembers which.
const (
	modeFrac uint8 = iota
	modeLog
	modeQuad
	numModes
)

// interp2 interpolates a plan's time at (i, j) from the corners of block
// b under the given model. Corners at or below zero force the arithmetic
// model (log is undefined there).
func (s *adaptive2D) interp2(p int, b *aBlock, i, j int, mode uint8) time.Duration {
	if mode == modeQuad {
		return s.quadInterp(p, b, i, j)
	}
	t00 := float64(s.times[p][b.i0][b.j0])
	t01 := float64(s.times[p][b.i0][b.j1])
	t10 := float64(s.times[p][b.i1][b.j0])
	t11 := float64(s.times[p][b.i1][b.j1])
	var val float64
	if mode == modeLog && t00 > 0 && t01 > 0 && t10 > 0 && t11 > 0 {
		u, v := unit(i, b.i0, b.i1), unit(j, b.j0, b.j1)
		val = math.Exp(math.Log(t00)*(1-u)*(1-v) + math.Log(t10)*u*(1-v) +
			math.Log(t01)*(1-u)*v + math.Log(t11)*u*v)
	} else {
		u := unit(s.fracA[i], s.fracA[b.i0], s.fracA[b.i1])
		v := unit(s.fracB[j], s.fracB[b.j0], s.fracB[b.j1])
		val = t00*(1-u)*(1-v) + t10*u*(1-v) + t01*(1-u)*v + t11*u*v
	}
	return time.Duration(math.Round(val))
}

// quadInterp evaluates the Lagrange patch over block b's measured lattice
// (3×3 where both axes are wider than one step, degenerating to linear on
// single-step axes) at (i, j) for plan p, in grid-index coordinates.
func (s *adaptive2D) quadInterp(p int, b *aBlock, i, j int) time.Duration {
	is := splitCoords(b.i0, b.i1)
	js := splitCoords(b.j0, b.j1)
	wi := lagrangeWeights(is, i)
	wj := lagrangeWeights(js, j)
	val := 0.0
	for a, ia := range is {
		for c, jc := range js {
			val += wi[a] * wj[c] * float64(s.times[p][ia][jc])
		}
	}
	if val < 0 {
		val = 0
	}
	return time.Duration(math.Round(val))
}

// lagrangeWeights returns the Lagrange interpolation weights for the
// basis points xs evaluated at x.
func lagrangeWeights(xs []int, x int) []float64 {
	w := make([]float64, len(xs))
	for k := range xs {
		wk := 1.0
		for l := range xs {
			if l != k {
				wk *= float64(x-xs[l]) / float64(xs[k]-xs[l])
			}
		}
		w[k] = wk
	}
	return w
}

// unit maps x in [lo, hi] to [0, 1]. A zero-width extent — the collapsed B
// axis of a 1-D sweep — maps to 0, which reduces the bilinear forms above
// to linear interpolation along A.
func unit[T int | float64](x, lo, hi T) float64 {
	if hi == lo {
		return 0
	}
	return float64(x-lo) / float64(hi-lo)
}

// valueAt returns the sweep's current estimate of plan p's time at a
// point: the measured value where one exists, the fill-block interpolation
// where the plan has dropped out, and ok=false where neither is available
// yet (a guard-band probe into a region still being refined).
func (s *adaptive2D) valueAt(p, i, j int) (time.Duration, bool) {
	if s.measured[p][i][j] {
		return s.times[p][i][j], true
	}
	if id := s.fillBlk[p][i][j]; id >= 0 {
		return s.interp2(p, &s.blocks[id], i, j, s.fillMode[p][i][j]), true
	}
	return 0, false
}

// winnerAt returns the index of the cheapest plan at a point over the
// plans with available values (ties break toward the lowest plan index).
func (s *adaptive2D) winnerAt(i, j int) int {
	best, bestP := time.Duration(math.MaxInt64), -1
	for p := range s.plans {
		if t, ok := s.valueAt(p, i, j); ok && t < best {
			best, bestP = t, p
		}
	}
	return bestP
}

// bestAt returns the cheapest available time at a point.
func (s *adaptive2D) bestAt(i, j int) time.Duration {
	best := time.Duration(math.MaxInt64)
	for p := range s.plans {
		if t, ok := s.valueAt(p, i, j); ok && t < best {
			best = t
		}
	}
	return best
}

// dropPlan records plan p's fill source over the region block's interior:
// the basis block's lattice under the model that fit (for the quadratic
// model the basis is the validated ancestor, otherwise the region
// itself). First assignment wins; measured points keep their measured
// values regardless.
func (s *adaptive2D) dropPlan(p, region, basis int, mode uint8) {
	b := &s.blocks[region]
	for i := b.i0; i <= b.i1; i++ {
		for j := b.j0; j <= b.j1; j++ {
			if s.fillBlk[p][i][j] < 0 && !s.measured[p][i][j] {
				s.fillBlk[p][i][j] = basis
				s.fillMode[p][i][j] = mode
			}
		}
	}
}

// splitCoords returns the lattice coordinates a block contributes when it
// splits: its corner coordinates plus the midpoints of any axis wider than
// one step. A zero-width axis contributes its one coordinate.
func splitCoords(lo, hi int) []int {
	switch {
	case hi == lo:
		return []int{lo}
	case hi-lo == 1:
		return []int{lo, hi}
	}
	return []int{lo, (lo + hi) / 2, hi}
}

// run drives the rounds: measure pending blocks' split points, evaluate
// their children, repeat until no block wants to split further.
func (s *adaptive2D) run() {
	nPlans := len(s.plans)
	allActive := make([]bool, nPlans)
	for p := range allActive {
		allActive[p] = true
	}
	s.phase = &s.refineCells
	root := aBlock{i0: 0, i1: s.n - 1, j0: 0, j1: s.m - 1, depth: 0, parent: -1, active: allActive}
	s.blocks = append(s.blocks, root)

	// Round 0: the root's corners, all plans.
	wants := map[[2]int][]bool{}
	for _, i := range []int{0, s.n - 1} {
		for _, j := range []int{0, s.m - 1} {
			wants[[2]int{i, j}] = append([]bool(nil), allActive...)
		}
	}
	s.measureRound(wants)

	pending := []int{0} // block ids queued to split
	for len(pending) > 0 {
		// Measure every pending block's split points for its active plans.
		wants = map[[2]int][]bool{}
		for _, id := range pending {
			b := &s.blocks[id]
			for _, i := range splitCoords(b.i0, b.i1) {
				for _, j := range splitCoords(b.j0, b.j1) {
					mask := wants[[2]int{i, j}]
					if mask == nil {
						mask = make([]bool, nPlans)
						wants[[2]int{i, j}] = mask
					}
					for p := range b.active {
						mask[p] = mask[p] || b.active[p]
					}
				}
			}
		}
		s.measureRound(wants)

		// Evaluate children in deterministic order.
		var next []int
		for _, id := range pending {
			next = append(next, s.evaluateSplit(id)...)
		}
		pending = next
	}
	// Stabilize the derived maps: landmarks must rest on measured cells
	// and near-boundary winners must not be interpolation artifacts.
	// Measuring can shift both, so alternate until neither pass wants
	// anything; every iteration measures at least one fresh cell, which
	// bounds the loop by the cell count.
	for s.inPhase(&s.landmarkCells, s.landmarkPass) ||
		s.inPhase(&s.guardCells, s.guardPass) {
	}
}

// inPhase runs fn with measurement rounds charged to the given counter.
func (s *adaptive2D) inPhase(counter *int, fn func() bool) bool {
	prev := s.phase
	s.phase = counter
	defer func() { s.phase = prev }()
	return fn()
}

// want records a (plan, point) measurement demand in wants.
func want(wants map[[2]int][]bool, nPlans, p, i, j int) {
	mask := wants[[2]int{i, j}]
	if mask == nil {
		mask = make([]bool, nPlans)
		wants[[2]int{i, j}] = mask
	}
	mask[p] = true
}

// guardPass is the guard band: wherever the winner changes between lattice
// neighbors (within GuardBand steps), both flanking winners are measured
// at the near-boundary points, so no boundary location is an interpolation
// artifact. Returns whether anything new was measured.
func (s *adaptive2D) guardPass() bool {
	g := s.cfg.GuardBand
	if g <= 0 {
		return false
	}
	winner := make([][]int, s.n)
	for i := range winner {
		winner[i] = make([]int, s.m)
		for j := range winner[i] {
			winner[i][j] = s.winnerAt(i, j)
		}
	}
	wants := map[[2]int][]bool{}
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.m; j++ {
			for di := -g; di <= g; di++ {
				for dj := -g; dj <= g; dj++ {
					ni, nj := i+di, j+dj
					if ni < 0 || ni >= s.n || nj < 0 || nj >= s.m {
						continue
					}
					w, nw := winner[i][j], winner[ni][nj]
					if w < 0 || nw < 0 || w == nw {
						continue
					}
					for _, p := range []int{w, nw} {
						if !s.measured[p][i][j] {
							want(wants, len(s.plans), p, i, j)
						}
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		return false
	}
	s.measureRound(wants)
	return true
}

// rowAt estimates the result size at a point: the measured value, the
// oracle, or a geometric estimate from the root corners (result sizes
// follow the product law rows ≈ N·fa·fb, linear in log space over the
// index lattice). Estimates are memoized — the values are fixed per
// point, and the oracle scans the table on every call.
func (s *adaptive2D) rowAt(i, j int) int64 {
	if s.rowsSet[i][j] {
		return s.rows[i][j]
	}
	if s.rowEst[i][j] >= 0 {
		return s.rowEst[i][j]
	}
	est := s.rowEstimate(i, j)
	s.rowEst[i][j] = est
	return est
}

func (s *adaptive2D) rowEstimate(i, j int) int64 {
	if s.cfg.ResultSize != nil {
		return s.cfg.ResultSize(s.ta[i], s.tb[j])
	}
	b := &s.blocks[0]
	u, v := unit(i, b.i0, b.i1), unit(j, b.j0, b.j1)
	l := func(x int64) float64 { return math.Log1p(float64(x)) }
	return int64(math.Round(math.Expm1(
		l(s.rows[b.i0][b.j0])*(1-u)*(1-v) + l(s.rows[b.i1][b.j0])*u*(1-v) +
			l(s.rows[b.i0][b.j1])*(1-u)*v + l(s.rows[b.i1][b.j1])*u*v)))
}

// landmarkPass re-anchors landmark detection on measurements: every
// landmark the configured detector finds on the current (partly
// interpolated) map gets the cells it rests on measured for that plan —
// a landmark spans the adjacent-point step it fires on plus the previous
// marginal-cost step. Returns whether anything new was measured.
func (s *adaptive2D) landmarkPass() bool {
	lcfg := s.cfg.Landmarks
	wants := map[[2]int][]bool{}
	rowBuf := make([]int64, max(s.n, s.m))
	timeBuf := make([]time.Duration, max(s.n, s.m))
	for p := range s.plans {
		for i := 0; i < s.n; i++ { // row slices: TA fixed, TB varying
			rows := rowBuf[:s.m]
			times := timeBuf[:s.m]
			for j := 0; j < s.m; j++ {
				rows[j] = s.rowAt(i, j) // memoized, plan-independent
				times[j], _ = s.valueAt(p, i, j)
			}
			for _, l := range FindLandmarks(rows, times, lcfg) {
				for j := max(0, l.PrevIndex-1); j <= l.Index; j++ {
					if !s.measured[p][i][j] {
						want(wants, len(s.plans), p, i, j)
					}
				}
			}
		}
		for j := 0; j < s.m; j++ { // column slices: TB fixed, TA varying
			rows := rowBuf[:s.n]
			times := timeBuf[:s.n]
			for i := 0; i < s.n; i++ {
				rows[i] = s.rowAt(i, j)
				times[i], _ = s.valueAt(p, i, j)
			}
			for _, l := range FindLandmarks(rows, times, lcfg) {
				for i := max(0, l.PrevIndex-1); i <= l.Index; i++ {
					if !s.measured[p][i][j] {
						want(wants, len(s.plans), p, i, j)
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		return false
	}
	s.measureRound(wants)
	return true
}

// evaluateSplit creates the children of a just-measured block, decides per
// child which plans stay active and whether the child splits further, and
// returns the child ids queued for splitting.
func (s *adaptive2D) evaluateSplit(id int) []int {
	b := s.blocks[id] // copy: s.blocks may grow below
	is := splitCoords(b.i0, b.i1)
	js := splitCoords(b.j0, b.j1)

	// Rough points, per interpolation model: split points where a plan's
	// measured value deviates from the model's prediction beyond
	// tolerance. A child keeps a plan active only when one of the child's
	// own corners is rough for it under every model — roughness elsewhere
	// in the parent is another child's problem, and one fitting model is
	// enough to fill from.
	roughAt := [numModes]map[[2]int][]bool{}
	for mode := range roughAt {
		roughAt[mode] = map[[2]int][]bool{}
	}
	// The quadratic model interpolates from the parent's lattice, so this
	// block's split points are held out of its basis — a genuine accuracy
	// check. At the root there is no parent and the model is unavailable.
	var quadBasis *aBlock
	if b.parent >= 0 {
		pb := s.blocks[b.parent]
		quadBasis = &pb
	}
	for p, act := range b.active {
		if !act {
			continue
		}
		for _, i := range is {
			for _, j := range js {
				if (i == b.i0 || i == b.i1) && (j == b.j0 || j == b.j1) {
					continue // parent corner, interpolation is exact
				}
				got := float64(s.times[p][i][j])
				tol := float64(s.cfg.AbsTol) + s.cfg.RelTol*got
				for mode := uint8(0); mode < numModes; mode++ {
					rough := false
					if mode == modeQuad && quadBasis == nil {
						rough = true
					} else {
						var want float64
						if mode == modeQuad {
							want = float64(s.quadInterp(p, quadBasis, i, j))
						} else {
							want = float64(s.interp2(p, &b, i, j, mode))
						}
						rough = math.Abs(got-want) > tol
					}
					if rough {
						mask := roughAt[mode][[2]int{i, j}]
						if mask == nil {
							mask = make([]bool, len(s.plans))
							roughAt[mode][[2]int{i, j}] = mask
						}
						mask[p] = true
					}
				}
			}
		}
	}
	roughFor := func(mode uint8, p, ci0, ci1, cj0, cj1 int) bool {
		for _, i := range []int{ci0, ci1} {
			for _, j := range []int{cj0, cj1} {
				if mask := roughAt[mode][[2]int{i, j}]; mask != nil && mask[p] {
					return true
				}
			}
		}
		return false
	}
	// fitMode returns the model to fill a child with: the first model
	// that held at all of the child's corners.
	fitMode := func(p, ci0, ci1, cj0, cj1 int) uint8 {
		for mode := uint8(0); mode < numModes; mode++ {
			if !roughFor(mode, p, ci0, ci1, cj0, cj1) {
				return mode
			}
		}
		return modeFrac
	}

	// Children span adjacent split coordinates. Only the B axis can be
	// collapsed (a 1-D sweep); its one coordinate is the single
	// zero-width extent [j0, j0].
	var queued []int
	for ii := 0; ii+1 < len(is); ii++ {
		for jj := 0; jj < max(len(js)-1, 1); jj++ {
			child := aBlock{
				i0: is[ii], i1: is[ii+1], j0: js[jj], j1: js[min(jj+1, len(js)-1)],
				depth: b.depth + 1, parent: id,
			}
			cid := len(s.blocks)
			winTrig := s.winnerTrigger(&child)
			coarse := child.depth < s.cfg.CoarseLevels

			child.active = make([]bool, len(s.plans))
			anyActive := false
			for p, act := range b.active {
				if !act {
					continue
				}
				allRough := true
				for mode := uint8(0); mode < numModes; mode++ {
					if !roughFor(mode, p, child.i0, child.i1, child.j0, child.j1) {
						allRough = false
						break
					}
				}
				keep := coarse || allRough
				if winTrig && s.contender(p, &child) {
					keep = true
				}
				child.active[p] = keep
				anyActive = anyActive || keep
			}
			s.blocks = append(s.blocks, child)
			// Plans leaving the mesh here interpolate from this child's
			// corners — or, under the quadratic model, from the validated
			// parent lattice — whichever model fit.
			dropWith := func(p int) {
				mode := fitMode(p, child.i0, child.i1, child.j0, child.j1)
				basis := cid
				if mode == modeQuad {
					basis = b.parent
				}
				s.dropPlan(p, cid, basis, mode)
			}
			for p, act := range b.active {
				if act && !child.active[p] {
					dropWith(p)
				}
			}
			splittable := child.i1-child.i0 > 1 || child.j1-child.j0 > 1
			if splittable && (coarse || winTrig || anyActive) {
				queued = append(queued, cid)
			} else if anyActive {
				// Fully refined (or nothing to split): active plans are
				// measured at every remaining point of the child already
				// or will never be — record the child as their source.
				for p, act := range child.active {
					if act {
						dropWith(p)
					}
				}
			}
		}
	}
	return queued
}

// winnerTrigger reports whether the winning plan changes across the
// child's corners.
func (s *adaptive2D) winnerTrigger(c *aBlock) bool {
	w := s.winnerAt(c.i0, c.j0)
	for _, pt := range [][2]int{{c.i0, c.j1}, {c.i1, c.j0}, {c.i1, c.j1}} {
		if ww := s.winnerAt(pt[0], pt[1]); ww >= 0 && w >= 0 && ww != w {
			return true
		}
	}
	return false
}

// contender reports whether plan p is close enough to the best plan at any
// corner of the child to deserve measurement inside a winner-boundary
// block.
func (s *adaptive2D) contender(p int, c *aBlock) bool {
	f := s.cfg.ContenderFactor
	if f < 1 {
		return true
	}
	for _, pt := range [][2]int{{c.i0, c.j0}, {c.i0, c.j1}, {c.i1, c.j0}, {c.i1, c.j1}} {
		t, ok := s.valueAt(p, pt[0], pt[1])
		if !ok {
			return true // no estimate yet: keep measuring
		}
		if float64(t) <= f*float64(s.bestAt(pt[0], pt[1])) {
			return true
		}
	}
	return false
}

// finish fills every unmeasured cell from its plan's recorded fill block
// and assembles the Map2D and Mesh2D.
func (s *adaptive2D) finish() (*Map2D, *Mesh2D) {
	me := &Mesh2D{
		PlanPoints: make([][][]bool, len(s.plans)),
		Points:     makeBoolGrid(s.n, s.m),
		TotalCells: len(s.plans) * s.n * s.m,
		Rounds:     s.rounds,
	}
	me.MeasuredCells = s.cells
	me.RefineCells = s.refineCells
	me.LandmarkCells = s.landmarkCells
	me.GuardCells = s.guardCells
	for p := range s.plans {
		me.PlanPoints[p] = s.measured[p]
		for i := 0; i < s.n; i++ {
			for j := 0; j < s.m; j++ {
				if s.measured[p][i][j] {
					me.Points[i][j] = true
					continue
				}
				id := s.fillBlk[p][i][j]
				if id < 0 {
					// Unreachable by construction; fill from the root so a
					// bug cannot leave zeros behind.
					id = 0
				}
				s.times[p][i][j] = s.interp2(p, &s.blocks[id], i, j, s.fillMode[p][i][j])
			}
		}
	}
	// Rows at unmeasured points: the oracle when present, otherwise a
	// geometric estimate (the root corners are always measured).
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.m; j++ {
			if !s.rowsSet[i][j] {
				s.rows[i][j] = s.rowAt(i, j)
			}
		}
	}
	m := &Map2D{
		FracA: s.fracA, FracB: s.fracB, TA: s.ta, TB: s.tb,
		Plans: make([]string, len(s.plans)),
		Times: s.times,
		Rows:  s.rows,
	}
	for p, src := range s.plans {
		m.Plans[p] = src.ID
	}
	return m, me
}
