package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The sweep request API.
//
// A sweep has several orthogonal concerns — grid shape, executor choice,
// caching, adaptivity — and a positional entry point per combination
// doubles the surface with each one. A Sweep is instead built once from
// functional options, in the style of OPA's rego.New(rego.Query(...), ...):
//
//	sw := core.NewSweep(plans,
//	    core.Grid2D(fracA, fracB, ta, tb),
//	    core.WithParallelism(8),
//	    core.WithAdaptive(core.DefaultAdaptiveConfig()),
//	    core.WithProgress(func(p core.Progress) { ... }))
//	res, err := sw.Run(ctx)
//
// and run under a context: cancelling the context makes Run return
// ctx.Err() promptly with no partial map and no leaked goroutines. Run is
// the only way to sweep.

// Progress is a snapshot of a running sweep, delivered to a ProgressFunc.
type Progress struct {
	// MeasuredCells counts the (plan, point) measurement requests issued
	// so far (cache hits included). InterpolatedCells counts cells filled
	// from an interpolation model instead of a measurement — known only
	// once an adaptive sweep finishes, so it is nonzero only on the final
	// report. TotalCells is the exhaustive cell count len(plans) × points.
	MeasuredCells, InterpolatedCells, TotalCells int
	// Done marks the final report, emitted unconditionally when the sweep
	// completes (never on cancellation).
	Done bool
}

// ProgressFunc observes a sweep's progress. Calls are serialized (never
// concurrent with each other) but may come from any sweep worker
// goroutine; the callback must not block for long, or it will stall the
// worker that happened to cross the reporting threshold.
type ProgressFunc func(Progress)

// SweepResult is what a Sweep run produces: the 1-D or 2-D map (matching
// the grid option the Sweep was built with) and, for adaptive sweeps, the
// refinement mesh.
type SweepResult struct {
	// Map1D and Mesh1D are set for Grid1D sweeps (Mesh1D only when
	// adaptive); Map2D and Mesh2D for Grid2D sweeps.
	Map1D  *Map1D
	Mesh1D *Mesh1D
	Map2D  *Map2D
	Mesh2D *Mesh2D
}

// Sweep is one configured sweep request. Build it with NewSweep and run it
// with Run; a Sweep is not safe for concurrent use, but may be Run more
// than once (each Run re-measures).
type Sweep struct {
	plans []PlanSource
	err   error // first configuration error; reported by Run

	grid

	ex               SweepExecutor
	cache            *MeasureCache
	cacheScope       string
	adaptive         *AdaptiveConfig
	tol              *Tolerance
	progress         ProgressFunc
	progressInterval time.Duration
}

// grid is the lattice a sweep measures. The paper draws one kind of
// diagram at two dimensionalities, and "no second predicate" is a value,
// not a type (MeasureFunc receives tb = -1): a 1-D grid is the 2-D lattice
// with the B axis collapsed to that one point, so one exhaustive sweep and
// one refiner serve both. dims only selects the result's wire type, how
// cross-check panics name a point, and whether the refiner may treat a
// one-point B axis as collapsed rather than too small to subsample.
type grid struct {
	dims         int // 0 = no grid yet, 1 or 2
	fracA, fracB []float64
	ta, tb       []int64
}

// label names grid point (i, j) in cross-check panics.
func (g grid) label(i, j int) string {
	if g.dims == 1 {
		return fmt.Sprintf("point %d", i)
	}
	return fmt.Sprintf("(%d,%d)", i, j)
}

// SweepOption configures a Sweep. Options are applied in order; later
// options override earlier ones.
type SweepOption func(*Sweep)

// NewSweep builds a sweep request over the given plan sources. Exactly one
// grid option (Grid1D or Grid2D) is required; every other option is
// orthogonal and optional. Configuration errors are deferred to Run.
func NewSweep(plans []PlanSource, opts ...SweepOption) *Sweep {
	s := &Sweep{plans: plans, progressInterval: DefaultProgressInterval}
	for _, opt := range opts {
		opt(s)
	}
	if s.dims == 0 && s.err == nil {
		s.err = errors.New("core: sweep has no grid (use Grid1D or Grid2D)")
	}
	return s
}

// fail records the first configuration error.
func (s *Sweep) fail(msg string) {
	if s.err == nil {
		s.err = errors.New(msg)
	}
}

// Grid1D sweeps the plans over one predicate: fractions are the axis
// selectivity fractions and thresholds the matching predicate thresholds
// (measurements receive tb = -1).
func Grid1D(fractions []float64, thresholds []int64) SweepOption {
	return func(s *Sweep) {
		if len(fractions) != len(thresholds) {
			s.fail("core: fractions and thresholds length mismatch")
			return
		}
		s.grid = grid{dims: 1, fracA: fractions, ta: thresholds,
			fracB: []float64{1}, tb: []int64{-1}}
	}
}

// Grid2D sweeps the plans over the (ta, tb) grid; fracA/fracB are the axis
// selectivity fractions and ta/tb the matching thresholds.
func Grid2D(fracA, fracB []float64, ta, tb []int64) SweepOption {
	return func(s *Sweep) {
		if len(fracA) != len(ta) || len(fracB) != len(tb) {
			s.fail("core: fractions and thresholds length mismatch")
			return
		}
		s.grid = grid{dims: 2, fracA: fracA, fracB: fracB, ta: ta, tb: tb}
	}
}

// WithExecutor schedules the sweep's measurement cells on the given
// executor. Parallel executors require concurrency-safe plan sources. The
// default is the serial executor. Executors implementing ContextExecutor
// cancel mid-batch; others finish only the cells already started and skip
// the rest once the context is cancelled.
func WithExecutor(ex SweepExecutor) SweepOption {
	return func(s *Sweep) { s.ex = ex }
}

// WithParallelism is WithExecutor(NewExecutor(n)): 0 or 1 serial, higher
// values that many workers, negative all CPUs. Map contents are identical
// at every setting.
func WithParallelism(n int) SweepOption {
	return func(s *Sweep) { s.ex = NewExecutor(n) }
}

// WithCache memoizes measurements in the given cache (see MeasureCache):
// every plan source is wrapped with Wrap under the sweep's cache scope
// (WithCacheScope, "" by default). Sources that span several systems
// should instead be pre-wrapped with per-system scopes. A nil cache
// disables caching.
func WithCache(c *MeasureCache) SweepOption {
	return func(s *Sweep) { s.cache = c }
}

// WithCacheScope sets the cache key scope used by WithCache — the string
// that names the measured system, so one cache can serve several systems
// without collisions.
func WithCacheScope(scope string) SweepOption {
	return func(s *Sweep) { s.cacheScope = scope }
}

// WithAdaptive switches the sweep to the adaptive multi-resolution
// sweeper under the given configuration (DefaultAdaptiveConfig for the
// study's tuning): the coarse lattice, winner boundaries, and landmarks
// are measured, constant-region interiors interpolated, and the result's
// mesh records which was which. Measured cells are bit-identical to the
// exhaustive sweep's at any worker count.
func WithAdaptive(cfg AdaptiveConfig) SweepOption {
	return func(s *Sweep) { s.adaptive = &cfg }
}

// WithTolerance overrides the adaptive sweeper's interpolation error
// bound with a §3.4 practical-equivalence tolerance: a plan's measured
// split points may deviate from the model fit by up to
// tol.Absolute + (tol.Relative - 1) × measured before the plan is kept at
// finer resolutions. It has no effect on exhaustive (non-adaptive)
// sweeps, which measure every cell exactly.
func WithTolerance(tol Tolerance) SweepOption {
	return func(s *Sweep) { s.tol = &tol }
}

// WithProgress reports sweep progress to fn, throttled to at most one
// report per DefaultProgressInterval (tune with WithProgressInterval),
// plus one final report with Done set when the sweep completes.
func WithProgress(fn ProgressFunc) SweepOption {
	return func(s *Sweep) { s.progress = fn }
}

// DefaultProgressInterval is the progress-report throttle used when
// WithProgressInterval is not given.
const DefaultProgressInterval = 100 * time.Millisecond

// WithProgressInterval sets the minimum time between progress reports; 0
// reports after every measured cell.
func WithProgressInterval(d time.Duration) SweepOption {
	return func(s *Sweep) { s.progressInterval = d }
}

// sweepInterrupt carries a context error out of a sweep's measurement
// loops on the panic path (the loops are deeply recursive in the adaptive
// sweeper); Run recovers it and returns the error.
type sweepInterrupt struct{ err error }

// progressMeter throttles and serializes ProgressFunc calls across sweep
// workers.
type progressMeter struct {
	fn       ProgressFunc
	interval time.Duration
	total    int

	measured atomic.Int64
	lastNano atomic.Int64
	mu       sync.Mutex
}

// wrap counts and reports measurement requests issued through src.
func (pm *progressMeter) wrap(src PlanSource) PlanSource {
	measure := src.Measure
	return PlanSource{
		ID: src.ID,
		Measure: func(ta, tb int64) Measurement {
			v := measure(ta, tb)
			pm.tick()
			return v
		},
	}
}

// tick records one measured cell and emits a throttled report. With a
// positive interval, workers racing on the throttle window drop their
// report rather than queue it; interval <= 0 bypasses the throttle so
// every cell reports. The count is re-read under the lock, so serialized
// reports never show a decreasing MeasuredCells.
func (pm *progressMeter) tick() {
	pm.measured.Add(1)
	if pm.interval > 0 {
		now := time.Now().UnixNano()
		last := pm.lastNano.Load()
		if now-last < int64(pm.interval) || !pm.lastNano.CompareAndSwap(last, now) {
			return
		}
	}
	pm.mu.Lock()
	pm.fn(Progress{MeasuredCells: int(pm.measured.Load()), TotalCells: pm.total})
	pm.mu.Unlock()
}

// finish emits the unconditional final report.
func (pm *progressMeter) finish(p Progress) {
	p.Done = true
	pm.mu.Lock()
	pm.fn(p)
	pm.mu.Unlock()
}

// Run executes the sweep under ctx and returns its maps. When ctx is
// cancelled, Run returns ctx.Err() promptly — in-flight cells finish,
// queued cells are abandoned, no partial map is returned, and no
// goroutines are leaked. Configuration errors recorded by NewSweep are
// returned verbatim. A row-count disagreement between plans panics: that
// is a broken plan, not a runtime condition.
func (s *Sweep) Run(ctx context.Context) (res *SweepResult, err error) {
	if s.err != nil {
		return nil, s.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ex := s.ex
	if ex == nil {
		ex = SerialExecutor{}
	}
	sources := s.plans
	if s.cache != nil {
		wrapped := make([]PlanSource, len(sources))
		for i, src := range sources {
			wrapped[i] = s.cache.Wrap(s.cacheScope, src)
		}
		sources = wrapped
	}
	var pm *progressMeter
	if s.progress != nil {
		pm = &progressMeter{fn: s.progress, interval: s.progressInterval,
			total: len(sources) * len(s.ta) * len(s.tb)}
		wrapped := make([]PlanSource, len(sources))
		for i, src := range sources {
			wrapped[i] = pm.wrap(src)
		}
		sources = wrapped
	}
	defer func() {
		if r := recover(); r != nil {
			if si, ok := r.(sweepInterrupt); ok {
				res, err = nil, si.err
				return
			}
			panic(r)
		}
	}()
	res = &SweepResult{}
	if cfg := s.adaptiveConfig(); cfg != nil {
		res.Map2D, res.Mesh2D = adaptiveSweep2D(ctx, ex, sources, s.grid, *cfg)
	} else {
		res.Map2D = sweep2D(ctx, ex, sources, s.grid)
	}
	if s.dims == 1 {
		m, me := project1D(res.Map2D, res.Mesh2D)
		res = &SweepResult{Map1D: m, Mesh1D: me}
	}
	if pm != nil {
		pm.finish(s.finalProgress(pm, res))
	}
	return res, nil
}

// adaptiveConfig resolves the adaptive option with the tolerance override.
func (s *Sweep) adaptiveConfig() *AdaptiveConfig {
	if s.adaptive == nil {
		return nil
	}
	cfg := *s.adaptive
	if s.tol != nil {
		cfg.AbsTol = s.tol.Absolute
		cfg.RelTol = 0
		if s.tol.Relative > 1 {
			cfg.RelTol = s.tol.Relative - 1
		}
	}
	return &cfg
}

// finalProgress assembles the completion report: exhaustive sweeps
// measured everything; adaptive sweeps report the mesh's breakdown.
func (s *Sweep) finalProgress(pm *progressMeter, res *SweepResult) Progress {
	p := Progress{MeasuredCells: int(pm.measured.Load()), TotalCells: pm.total}
	switch {
	case res.Mesh1D != nil:
		p.InterpolatedCells = res.Mesh1D.TotalCells - res.Mesh1D.MeasuredCells
	case res.Mesh2D != nil:
		p.InterpolatedCells = res.Mesh2D.TotalCells - res.Mesh2D.MeasuredCells
	}
	return p
}

// Run1D runs the sweep and unwraps the 1-D map; it errors if the sweep
// was built with Grid2D.
func (s *Sweep) Run1D(ctx context.Context) (*Map1D, *Mesh1D, error) {
	if s.err == nil && s.dims != 1 {
		return nil, nil, errors.New("core: Run1D on a 2-D sweep")
	}
	res, err := s.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	return res.Map1D, res.Mesh1D, nil
}

// Run2D runs the sweep and unwraps the 2-D map; it errors if the sweep
// was built with Grid1D.
func (s *Sweep) Run2D(ctx context.Context) (*Map2D, *Mesh2D, error) {
	if s.err == nil && s.dims != 2 {
		return nil, nil, errors.New("core: Run2D on a 1-D sweep")
	}
	res, err := s.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	return res.Map2D, res.Mesh2D, nil
}
