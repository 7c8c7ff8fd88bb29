// Package experiments defines one regenerable experiment per table/figure
// of the paper, plus the §4 sort-spill prediction made concrete. Each
// experiment produces Artifacts: the underlying map data, a CSV, an ASCII
// rendering, an SVG, and (for 2-D maps) a PPM bitmap, along with a textual
// summary of the paper's qualitative claims checked against the measured
// data.
package experiments

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/plan"
	"robustmap/internal/service"
)

// StudyConfig scales the whole study.
type StudyConfig struct {
	// Rows is the table cardinality (the paper used ~60M TPC-H lineitem
	// rows; the default here is 2^17 — the maps' shapes depend on
	// selectivity fractions, not absolute size).
	Rows int64
	// MaxExp1D sets the 1-D sweep range: fractions 2^-MaxExp1D … 2^0
	// (the paper's Figure 1 runs 2^-16 … 2^0).
	MaxExp1D int
	// MaxExp2D sets each 2-D axis: fractions 2^-MaxExp2D … 2^0, giving a
	// (MaxExp2D+1)² grid.
	MaxExp2D int
	// Parallelism is the sweep worker count: 0 or 1 measure serially (the
	// paper's original loop), higher values fan (plan, point) cells out
	// over that many goroutines, and negative values use every available
	// CPU. Map contents are identical at every setting — measurements are
	// virtual-time and per-cell isolated — only wall-clock time changes.
	Parallelism int
	// Refine switches the study's sweeps to the adaptive multi-resolution
	// sweeper: a coarse pass plus quadtree refinement near winner
	// boundaries and rough cost curves, with constant-region interiors
	// interpolated. Measured cells are bit-identical to the exhaustive
	// sweep's; winner and landmark maps match it exactly (the equivalence
	// tests pin this for the 13-plan study).
	Refine bool
	// RefineConfig overrides the adaptive sweeper's tuning when Refine is
	// set. The zero value means core.DefaultAdaptiveConfig(). The
	// ResultSize oracle is always installed by the study.
	RefineConfig *core.AdaptiveConfig
	// CacheSize enables the shared measurement cache: measured cells are
	// memoized across sweeps (1-D slices, refinement passes, repeated
	// studies), keyed by (system, plan, point). Positive values bound the
	// entry count with LRU eviction, -1 means unbounded, 0 disables.
	CacheSize int
	// Progress, when set, observes every study sweep: it receives
	// throttled core.Progress snapshots (measured/interpolated/total cell
	// counts) plus a final report per sweep. Purely observational — map
	// contents are unaffected.
	Progress core.ProgressFunc
	// Service, when set, executes the study's standard-axis sweeps — the
	// shared 13-plan 2-D map and the default 1-D figure sweeps — as
	// submitted jobs on that service instead of measuring in process: an
	// in-process service (service.NewLocal), or a remote robustmapd via
	// the httpapi client, interchangeably. Requests carry the study's
	// Rows, axis, Parallelism, and Refine; the service measures on its
	// own engine at the default profile — the profile DefaultStudyConfig
	// and SmallStudyConfig use — and determinism makes the returned maps
	// bit-identical to in-process sweeps. Sweeps a request cannot
	// express faithfully stay in process automatically: studies with a
	// customized Engine or RefineConfig, experiments with bespoke
	// parameter spaces (memory sweeps, sort-spill curves), and 1-D plan
	// lists from outside System A. A service failure other than the
	// sweep's own cancellation also degrades to in-process measurement —
	// a down daemon slows a study, never fails or crashes it. Cancelling
	// the sweep context cancels the submitted job, not just the wait.
	Service service.Service
	// Engine carries pool size, memory budget, and the I/O profile.
	Engine engine.Config
}

// DefaultStudyConfig returns the full-scale configuration used by the
// benchmark harness and the CLI. The sweep ranges mirror the paper's:
// Figure 1 runs selectivities 2^-16 … 2^0; the 2-D grids must reach
// fractions where point lookups beat the table scan (below ~2^-12, the
// seek/transfer break-even), or the maps lose the regions where index
// plans win.
func DefaultStudyConfig() StudyConfig {
	cfg := engine.DefaultConfig()
	return StudyConfig{
		Rows:     cfg.Rows, // 2^17
		MaxExp1D: 16,
		MaxExp2D: 14,
		Engine:   cfg,
	}
}

// SmallStudyConfig returns the unit-test configuration: same table scale
// as the default (the qualitative shapes need it) with slightly coarser
// grids.
func SmallStudyConfig() StudyConfig {
	cfg := engine.DefaultConfig()
	return StudyConfig{
		Rows:     cfg.Rows,
		MaxExp1D: 14,
		MaxExp2D: 14,
		Engine:   cfg,
	}
}

// Study holds the three built systems and lazily computed sweeps shared by
// the figures (the 2-D figures all derive from one 13-plan sweep).
type Study struct {
	Cfg  StudyConfig
	SysA *engine.System
	SysB *engine.System
	SysC *engine.System

	ctx    context.Context    // sweep context; nil means Background
	cache  *core.MeasureCache // shared across sweeps; nil when disabled
	map2D  *core.Map2D        // all 13 plans over the 2-D grid; lazily built
	mesh2D *core.Mesh2D       // refinement mesh of map2D when Refine is set
}

// studyInterrupt carries a sweep cancellation through the figure
// functions, whose signatures predate context plumbing; RunContext
// recovers it. (The sweep core uses the same panic discipline for its
// row-count cross-checks.)
type studyInterrupt struct{ err error }

// SetContext installs the context the study's error-free sweep
// accessors (Sweep1D, Map2D) run under; nil restores context.Background().
// When the context is cancelled mid-sweep those accessors panic with an
// internal marker that Definition.RunContext converts back into the
// context's error — use RunSweep or Map2DContext for plain error returns.
// Studies are confined to one goroutine at a time, as before.
func (s *Study) SetContext(ctx context.Context) { s.ctx = ctx }

// Context returns the study's sweep context (Background by default).
func (s *Study) Context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// NewStudy builds the three systems over the shared dataset parameters.
func NewStudy(cfg StudyConfig) (*Study, error) {
	ecfg := cfg.Engine
	ecfg.Rows = cfg.Rows
	a, err := engine.SystemA(ecfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: build system A: %w", err)
	}
	b, err := engine.SystemB(ecfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: build system B: %w", err)
	}
	c, err := engine.SystemC(ecfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: build system C: %w", err)
	}
	s := &Study{Cfg: cfg, SysA: a, SysB: b, SysC: c}
	if cfg.CacheSize != 0 {
		// NewMeasureCache treats negative capacities as unbounded.
		s.cache = core.NewMeasureCache(cfg.CacheSize)
	}
	return s, nil
}

// source adapts an engine plan to a core.PlanSource. Measurements go
// through the system's session pool, so the source is safe for concurrent
// sweep workers and reuses sessions across cells. When the study has a
// measurement cache, the source consults it first, keyed by the system
// name.
func (s *Study) source(sys *engine.System, p plan.Plan) core.PlanSource {
	src := core.PlanSource{
		ID: p.ID,
		Measure: func(ta, tb int64) core.Measurement {
			r := sys.RunShared(p, plan.Query{TA: ta, TB: tb})
			return core.Measurement{Time: r.Time, Rows: r.Rows}
		},
	}
	return s.cache.Wrap(sys.Name, src)
}

// CacheStats reports the shared measurement cache's counters; the zero
// value when no cache is configured.
func (s *Study) CacheStats() core.CacheStats {
	if s.cache == nil {
		return core.CacheStats{}
	}
	return s.cache.Stats()
}

// needsExactCells guards a check that requires exhaustive per-cell
// accuracy beyond the adaptive sweep's contract (exact winner, Rows, and
// map-scale landmark maps). Under a refined study the claim is reported
// as skipped rather than evaluated against interpolated interiors.
func needsExactCells(s *Study, c Check) Check {
	if s.Cfg.Refine {
		return Check{Claim: c.Claim, Pass: true,
			Got: "skipped: needs exhaustive per-cell accuracy (study ran with Refine)"}
	}
	return c
}

// adaptiveConfig assembles the study's adaptive sweeper tuning, installing
// the engine-backed result-size oracle (all systems share one dataset, so
// System A answers for every plan).
func (s *Study) adaptiveConfig() core.AdaptiveConfig {
	cfg := core.DefaultAdaptiveConfig()
	if s.Cfg.RefineConfig != nil {
		cfg = *s.Cfg.RefineConfig
	}
	cfg.ResultSize = func(ta, tb int64) int64 {
		return s.SysA.ResultSize(plan.Query{TA: ta, TB: tb})
	}
	return cfg
}

// Executor returns the sweep executor the study's Parallelism selects.
func (s *Study) Executor() core.SweepExecutor {
	return core.NewExecutor(s.Cfg.Parallelism)
}

// AllSources returns the thirteen plans bound to their systems.
func (s *Study) AllSources() []core.PlanSource {
	var out []core.PlanSource
	for _, p := range plan.SystemAPlans() {
		out = append(out, s.source(s.SysA, p))
	}
	for _, p := range plan.SystemBPlans() {
		out = append(out, s.source(s.SysB, p))
	}
	for _, p := range plan.SystemCPlans() {
		out = append(out, s.source(s.SysC, p))
	}
	return out
}

// axis returns the fractions 2^-maxExp … 2^0 and the matching thresholds
// — the shared core construction behind CLI grids and service requests,
// so study grids can never silently diverge from either.
func axis(rows int64, maxExp int) (fractions []float64, thresholds []int64) {
	return core.SweepAxis(rows, maxExp)
}

// sweepOptions assembles the study-wide options every sweep shares: the
// executor the Parallelism knob selects and the configured progress
// observer. (The measurement cache is not an option here — study sources
// are pre-wrapped with per-system cache scopes.)
func (s *Study) sweepOptions() []core.SweepOption {
	opts := []core.SweepOption{core.WithExecutor(s.Executor())}
	if s.Cfg.Progress != nil {
		opts = append(opts, core.WithProgress(s.Cfg.Progress))
	}
	return opts
}

// serviceEligible reports whether the study's sweeps mean the same
// thing on a service: a job request carries Rows/MaxExp/Parallelism/
// Refine but no engine profile (the service measures on its own engine
// at the default profile), so a study with a customized Engine must
// keep measuring in process rather than silently return maps from a
// different machine model.
func (s *Study) serviceEligible() bool {
	if s.Cfg.Service == nil {
		return false
	}
	if s.Cfg.RefineConfig != nil {
		// Custom adaptive tuning cannot be serialized either; the
		// service refines with the default configuration.
		return false
	}
	cfg := s.Cfg.Engine
	def := engine.DefaultConfig()
	cfg.Rows = def.Rows // Rows travels in the request
	return reflect.DeepEqual(cfg, def)
}

// serviceFallback decides — in one place, for every submitted study
// sweep — whether a service error should degrade to in-process
// measurement: yes for anything except the sweep's own cancellation
// (unreachable daemon, refused admission), with a stderr note so a
// user who pointed the study at a daemon (e.g. a mistyped -server URL)
// sees that the work ran locally. Determinism makes the fallback maps
// identical, and the study's panic-discipline accessors (Sweep1D,
// Map2D, RunExperiment) have no error return, so a down daemon must
// not start crashing them.
func serviceFallback(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	fmt.Fprintf(os.Stderr, "robustmap: study service sweep failed (%v); measuring in process\n", err)
	return true
}

// allSystemA reports whether every plan belongs to System A — the
// precondition for a 1-D study sweep to mean the same thing in process
// (where RunSweep measures on SysA) and on a service (where plans
// resolve to their catalog systems).
func allSystemA(plans []plan.Plan) bool {
	for _, p := range plans {
		if p.System != "A" {
			return false
		}
	}
	return true
}

// submit runs one standard-axis sweep as a job on the study's Service;
// see StudyConfig.Service for the contract.
func (s *Study) submit(ctx context.Context, ids []string, grid2D bool,
	maxExp int, refine bool) (*core.SweepResult, error) {
	res, err := service.Run(ctx, s.Cfg.Service, service.Request{
		Plans:       ids,
		Rows:        s.Cfg.Rows,
		MaxExp:      maxExp,
		Grid2D:      grid2D,
		Parallelism: s.Cfg.Parallelism,
		Refine:      refine,
	}, s.Cfg.Progress)
	if err != nil {
		return nil, err
	}
	return &core.SweepResult{
		Map1D: res.Map1D, Mesh1D: res.Mesh1D,
		Map2D: res.Map2D, Mesh2D: res.Mesh2D,
	}, nil
}

// RunSweep runs an ad-hoc sweep of the given plans through the unified
// options API, under ctx: by default a 1-D sweep of System A's plans over
// the study's 1-D axis on the study's executor, with any of the defaults
// overridable by trailing options (e.g. core.Grid2D for a custom grid, or
// core.WithAdaptive to refine). Sources are cache-wrapped when the study
// has a measurement cache. Cancelling ctx returns ctx.Err() with no
// partial map. On a study with a Service, the no-options form of a
// System-A plan list submits the sweep as a job instead; anything else
// stays in process — trailing options carry function values no request
// can serialize, and the in-process contract measures every listed plan
// on System A while a service resolves plans to their catalog systems,
// so only System-A lists (every 1-D figure sweep) mean the same thing
// on both paths.
func (s *Study) RunSweep(ctx context.Context, plans []plan.Plan,
	opts ...core.SweepOption) (*core.SweepResult, error) {
	if s.serviceEligible() && len(opts) == 0 && allSystemA(plans) {
		ids := make([]string, len(plans))
		for i, p := range plans {
			ids[i] = p.ID
		}
		res, err := s.submit(ctx, ids, false, s.Cfg.MaxExp1D, false)
		if !serviceFallback(ctx, err) {
			return res, err
		}
		// Degraded: measure in process below.
	}
	fr, th := axis(s.Cfg.Rows, s.Cfg.MaxExp1D)
	var sources []core.PlanSource
	for _, p := range plans {
		sources = append(sources, s.source(s.SysA, p))
	}
	base := append([]core.SweepOption{core.Grid1D(fr, th)}, s.sweepOptions()...)
	return core.NewSweep(sources, append(base, opts...)...).Run(ctx)
}

// Sweep1D runs the given plans over the study's 1-D axis on System A,
// scheduled by the study's executor. Refine deliberately does not apply
// here: the 1-D figure sweeps are a few dozen cells (the expense lives
// in the shared 2-D map), and the 1-D figures make noise-scale landmark
// claims that need exhaustive measurement. Use RunSweep with
// core.WithAdaptive for adaptive 1-D sweeps.
func (s *Study) Sweep1D(plans []plan.Plan) *core.Map1D {
	res, err := s.RunSweep(s.Context(), plans)
	if err != nil {
		panic(studyInterrupt{err})
	}
	return res.Map1D
}

// Map2DContext returns the shared 13-plan 2-D sweep and (when Refine is
// set) its mesh, computing them on first use under ctx with the study's
// executor. This is the expensive part of the study: (MaxExp2D+1)² points
// × 13 plans — unless Refine skips the redundant ones. On cancellation it
// returns ctx.Err() and leaves the map uncomputed, so a later call can
// retry.
func (s *Study) Map2DContext(ctx context.Context) (*core.Map2D, *core.Mesh2D, error) {
	// Cancellation applies to cache hits too: a caller that was just
	// interrupted should not receive the cached map as a success.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.map2D == nil {
		var (
			res *core.SweepResult
			err error
		)
		submitted := false
		if s.serviceEligible() {
			var ids []string
			for _, p := range plan.AllPlans() {
				ids = append(ids, p.ID)
			}
			submitted = true
			res, err = s.submit(ctx, ids, true, s.Cfg.MaxExp2D, s.Cfg.Refine)
		}
		if !submitted || serviceFallback(ctx, err) {
			fr, th := axis(s.Cfg.Rows, s.Cfg.MaxExp2D)
			opts := append([]core.SweepOption{core.Grid2D(fr, fr, th, th)}, s.sweepOptions()...)
			if s.Cfg.Refine {
				opts = append(opts, core.WithAdaptive(s.adaptiveConfig()))
			}
			res, err = core.NewSweep(s.AllSources(), opts...).Run(ctx)
		}
		if err != nil {
			return nil, nil, err
		}
		s.map2D, s.mesh2D = res.Map2D, res.Mesh2D
	}
	return s.map2D, s.mesh2D, nil
}

// Map2D returns the shared 13-plan 2-D sweep, computing it on first use
// under the study's context (see Map2DContext).
func (s *Study) Map2D() *core.Map2D {
	m, _, err := s.Map2DContext(s.Context())
	if err != nil {
		panic(studyInterrupt{err})
	}
	return m
}

// Mesh2D returns the refinement mesh of the shared 2-D sweep: nil unless
// the study ran with Refine set.
func (s *Study) Mesh2D() *core.Mesh2D {
	s.Map2D()
	return s.mesh2D
}

// FractionLabels renders axis fractions as the paper labels them (2^-k).
func FractionLabels(fracs []float64) []string {
	out := make([]string, len(fracs))
	for i, f := range fracs {
		k := 0
		for ff := f; ff < 1; ff *= 2 {
			k++
		}
		if k == 0 {
			out[i] = "2^0"
		} else {
			out[i] = fmt.Sprintf("2^-%d", k)
		}
	}
	return out
}

// csv1D renders a Map1D as CSV: fraction, rows, one column per plan
// (seconds).
func csv1D(m *core.Map1D) string {
	s := "fraction,rows"
	for _, p := range m.Plans {
		s += "," + p
	}
	s += "\n"
	for i := range m.Thresholds {
		s += fmt.Sprintf("%g,%d", m.Fractions[i], m.Rows[i])
		for pi := range m.Plans {
			s += fmt.Sprintf(",%.6f", m.Times[pi][i].Seconds())
		}
		s += "\n"
	}
	return s
}

// csv2DDur renders one plan's 2-D duration grid as CSV.
func csv2DDur(m *core.Map2D, grid [][]time.Duration) string {
	s := "fracA\\fracB"
	for _, f := range m.FracB {
		s += fmt.Sprintf(",%g", f)
	}
	s += "\n"
	for i, f := range m.FracA {
		s += fmt.Sprintf("%g", f)
		for j := range m.FracB {
			s += fmt.Sprintf(",%.6f", grid[i][j].Seconds())
		}
		s += "\n"
	}
	return s
}

// csv2DQuot renders a quotient grid as CSV.
func csv2DQuot(m *core.Map2D, grid [][]float64) string {
	s := "fracA\\fracB"
	for _, f := range m.FracB {
		s += fmt.Sprintf(",%g", f)
	}
	s += "\n"
	for i, f := range m.FracA {
		s += fmt.Sprintf("%g", f)
		for j := range m.FracB {
			s += fmt.Sprintf(",%.3f", grid[i][j])
		}
		s += "\n"
	}
	return s
}
