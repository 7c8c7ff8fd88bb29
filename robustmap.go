// Package robustmap is a library for measuring and visualizing the
// robustness of query execution, reproducing "Visualizing the robustness
// of query execution" (Graefe, Kuno, Wiener — CIDR 2009).
//
// A robustness map records the measured execution time of one or more
// fixed query execution plans across a parameter space (typically
// predicate selectivities) and makes degradation visible: where plans
// cross over, where cost curves stop flattening, where optimality regions
// fragment, and how far from optimal a plan gets (the paper observed
// factors up to 101,000).
//
// The package is a facade over the implementation:
//
//   - a deterministic storage engine (buffer pool, B-trees, MVCC, MDAM,
//     bitmap fetch, external sort, intersection joins) whose virtual-time
//     cost model reproduces the paper's three measured systems,
//   - the robustness-map core (sweeps, color bins, landmark detection,
//     optimality-region analysis), and
//   - renderers (ASCII, SVG, PPM).
//
// # Quick start
//
//	study, err := robustmap.NewStudy(robustmap.SmallStudyConfig())
//	if err != nil { ... }
//	art := robustmap.Figure1(study)     // regenerate the paper's Figure 1
//	fmt.Println(art.ASCII)              // terminal robustness map
//	os.WriteFile("fig1.svg", []byte(art.SVG), 0o644)
//
// Or map your own plans through the unified sweep request API: one
// request built from functional options, run under a context:
//
//	sys, _ := robustmap.SystemA(robustmap.DefaultEngineConfig())
//	sw := robustmap.NewSweep(sources,
//	    robustmap.Grid2D(fracs, fracs, ths, ths),
//	    robustmap.WithParallelism(-1),
//	    robustmap.WithAdaptive(robustmap.DefaultAdaptiveConfig()),
//	    robustmap.WithProgress(func(p robustmap.Progress) { ... }))
//	res, err := sw.Run(ctx) // ctx cancellation aborts cleanly
//
// Every concern is an orthogonal option: executors fan measurement cells
// out over worker goroutines without changing a single measured value
// (WithParallelism / WithExecutor), adaptive multi-resolution sweeps
// (WithAdaptive, or StudyConfig.Refine) measure a coarse lattice plus the
// winner boundaries and landmarks, interpolate the constant-region
// interiors, and reproduce the exhaustive winner and landmark maps
// exactly on the paper's study at roughly a third of the measurements,
// and a shared MeasureCache (WithCache, or StudyConfig.CacheSize)
// memoizes cells across sweeps, so repeated studies and refinement passes
// never re-measure a (plan, point) cell. Cancelling the context makes Run
// return ctx.Err() promptly with no partial map and no leaked
// goroutines, and WithProgress observes measured/interpolated/total cell
// counts as the sweep runs.
//
// Beyond the synchronous Run, sweeps also run as submitted jobs behind
// the transport-agnostic Service interface: Submit/Status/Result/
// Cancel/Watch over a serializable JobRequest, implemented in process
// (NewLocalService — bounded worker pool, priority admission, shared
// measurement cache, job TTL) and over JSON REST (NewRemoteService,
// against the cmd/robustmapd daemon), with bit-identical maps either
// way. A Study configured with StudyConfig.Service runs its standard
// sweeps through any Service.
//
// Beyond hand-written plans, a QuerySpec declares what a query asks
// for (table, predicates, projection, order/limit, aggregates) and the
// optimizer enumerates, costs, and picks candidate plans over its
// catalog; query jobs submitted through the Service carry the pick
// scored against the per-point oracle winner as regret and
// non-robustness maps (see EnumerateQueryPlans, RegretMap2D).
//
// See the examples directory for complete programs, README.md for the
// quick start and plan table, and DESIGN.md for the system inventory.
package robustmap

import (
	"context"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/exec"
	"robustmap/internal/experiments"
	"robustmap/internal/httpapi"
	"robustmap/internal/iomodel"
	"robustmap/internal/optimizer"
	"robustmap/internal/plan"
	"robustmap/internal/service"
	"robustmap/internal/spec"
	"robustmap/internal/vis"
)

// Study orchestration -------------------------------------------------------

// StudyConfig scales a full reproduction study (table size, sweep ranges,
// engine parameters).
type StudyConfig = experiments.StudyConfig

// Study holds the three built systems and the shared plan sweeps.
type Study = experiments.Study

// Artifacts is everything one experiment produces: summary, CSV, ASCII,
// SVG, PPM, and the outcomes of the paper-claim checks.
type Artifacts = experiments.Artifacts

// NewStudy builds the three systems of the paper's study.
func NewStudy(cfg StudyConfig) (*Study, error) { return experiments.NewStudy(cfg) }

// DefaultStudyConfig is the full-scale study configuration.
func DefaultStudyConfig() StudyConfig { return experiments.DefaultStudyConfig() }

// SmallStudyConfig is a reduced configuration suitable for laptops and CI.
func SmallStudyConfig() StudyConfig { return experiments.SmallStudyConfig() }

// ExperimentIDs lists the reproducible paper artifacts
// (fig1 … fig10, sortspill).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact by id.
func RunExperiment(study *Study, id string) (*Artifacts, bool) {
	def, ok := experiments.Lookup(id)
	if !ok {
		return nil, false
	}
	return def.Run(study), true
}

// RunExperimentContext regenerates one paper artifact by id with the
// study's sweeps under ctx: cancelling ctx aborts the sweep in flight and
// returns ctx.Err() with no artifacts. The boolean reports whether the id
// is known.
func RunExperimentContext(ctx context.Context, study *Study, id string) (*Artifacts, bool, error) {
	def, ok := experiments.Lookup(id)
	if !ok {
		return nil, false, nil
	}
	art, err := def.RunContext(ctx, study)
	return art, true, err
}

// Per-figure regenerators, plus the §3.3/§4 extension experiments.
var (
	Figure1        = experiments.Figure1
	Figure2        = experiments.Figure2
	Figure3        = experiments.Figure3
	Figure4        = experiments.Figure4
	Figure5        = experiments.Figure5
	Figure6        = experiments.Figure6
	Figure7        = experiments.Figure7
	Figure8        = experiments.Figure8
	Figure9        = experiments.Figure9
	Figure10       = experiments.Figure10
	SortSpill      = experiments.SortSpill
	JoinSweep      = experiments.JoinSweep
	AggSweep       = experiments.AggSweep
	WorstMap       = experiments.WorstMap
	SystemsCompare = experiments.SystemsCompare
	ParallelSweep  = experiments.ParallelSweep
	Regions        = experiments.Regions
	ScoreboardExp  = experiments.ScoreboardExperiment
	MemSweep       = experiments.MemSweep
	// RegretExp runs the embedded paper query through the optimizer and
	// renders the regret and non-robustness maps (the optimizer's
	// estimated-cost pick scored against the measured oracle winner).
	RegretExp = experiments.RegretExperiment
	// AdaptiveExperiment contrasts the adaptive multi-resolution sweep
	// with the exhaustive sweep on the full 13-plan study and renders the
	// winner map with the refinement-mesh overlay.
	AdaptiveExperiment = experiments.AdaptiveSweepExperiment
)

// Engine --------------------------------------------------------------------

// EngineConfig parameterizes one simulated database system.
type EngineConfig = engine.Config

// System is one built system: loaded table, indexes, and a deterministic
// cost model. Run measures a fixed plan at a query point.
type System = engine.System

// Result is one measured plan execution (virtual time, cost accounts,
// device and buffer-pool statistics).
type Result = engine.Result

// Session owns the per-run mutable state of one measurement stream over a
// System (clock, device, buffer pool, catalog). Systems are immutable
// after build, so any number of Sessions may measure concurrently; a
// Session itself is confined to one goroutine at a time.
type Session = engine.Session

// DefaultEngineConfig returns the experiment defaults (2^17 rows, 256-page
// buffer pool, 16 MiB operator memory, 2009-era disk profile).
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// SystemA builds the paper's System A: heap table with single-column
// non-clustered indexes, improved and traditional fetches, merge and hash
// index intersection.
func SystemA(cfg EngineConfig) (*System, error) { return engine.SystemA(cfg) }

// SystemB builds System B: MVCC on base rows only, so no index is covering
// and every plan fetches through a sorted RID bitmap.
func SystemB(cfg EngineConfig) (*System, error) { return engine.SystemB(cfg) }

// SystemC builds System C: covering two-column indexes driven by MDAM.
func SystemC(cfg EngineConfig) (*System, error) { return engine.SystemC(cfg) }

// DiskIOParams returns the default disk cost profile (4 ms seek, 8 KiB
// pages at ~100 MB/s, 64-page prefetch).
func DiskIOParams() iomodel.Params { return iomodel.DefaultParams() }

// FlashIOParams returns a flash-like profile for ablations.
func FlashIOParams() iomodel.Params { return iomodel.FlashParams() }

// Plans ---------------------------------------------------------------------

// Plan is a fixed physical query execution plan (the paper's hints made
// explicit).
type Plan = plan.Plan

// Query is a point in the parameter space: thresholds of the predicates
// a < TA and b < TB (TB < 0 for single-predicate queries).
type Query = plan.Query

// SystemAPlans returns System A's seven two-predicate plans.
func SystemAPlans() []Plan { return plan.SystemAPlans() }

// SystemBPlans returns System B's four bitmap-fetch plans.
func SystemBPlans() []Plan { return plan.SystemBPlans() }

// SystemCPlans returns System C's two MDAM plans.
func SystemCPlans() []Plan { return plan.SystemCPlans() }

// AllPlans returns all thirteen distinct plans of the study.
func AllPlans() []Plan { return plan.AllPlans() }

// Figure1Plans returns the three single-predicate plans of Figure 1.
func Figure1Plans() []Plan { return plan.Figure1Plans() }

// Figure2Plans returns Figure 2's advanced selection plan set.
func Figure2Plans() []Plan { return plan.Figure2Plans() }

// Robustness maps -----------------------------------------------------------

// Measurement is one observed plan execution (time and result size).
type Measurement = core.Measurement

// PlanSource is a named measurable plan for sweeps.
type PlanSource = core.PlanSource

// Map1D is a one-dimensional robustness map.
type Map1D = core.Map1D

// Map2D is a two-dimensional robustness map.
type Map2D = core.Map2D

// Landmark is a detected cost-curve irregularity (§3.1 of the paper).
type Landmark = core.Landmark

// GridLandmark is a landmark located on a slice of a 2-D map (see
// Map2D.LandmarkGrid).
type GridLandmark = core.GridLandmark

// LandmarkConfig tunes landmark detection tolerances and significance
// floors.
type LandmarkConfig = core.LandmarkConfig

// Tolerance defines when two execution times are practically equivalent
// (§3.4).
type Tolerance = core.Tolerance

// RegionStats describes an optimality region's size, fragmentation, and
// irregularity.
type RegionStats = core.RegionStats

// RobustnessSummary condenses a relative map into headline numbers.
type RobustnessSummary = core.RobustnessSummary

// The unified sweep request API ---------------------------------------------

// Sweep is one configured sweep request: build it with NewSweep from
// functional options, run it with Run(ctx). Cancelling the context makes
// Run return ctx.Err() promptly with no partial map and no leaked
// goroutines.
type Sweep = core.Sweep

// SweepOption configures a Sweep (grid, executor, cache, adaptivity,
// progress, tolerance); options compose orthogonally.
type SweepOption = core.SweepOption

// SweepResult carries a run's maps: Map1D/Mesh1D for Grid1D sweeps,
// Map2D/Mesh2D for Grid2D sweeps (meshes only when adaptive).
type SweepResult = core.SweepResult

// Progress is a snapshot of a running sweep: measured, interpolated, and
// total cell counts, with Done marking the final report.
type Progress = core.Progress

// ProgressFunc observes sweep progress; see WithProgress.
type ProgressFunc = core.ProgressFunc

// NewSweep builds a sweep request over plan sources: exactly one grid
// option plus any orthogonal options.
func NewSweep(plans []PlanSource, opts ...SweepOption) *Sweep {
	return core.NewSweep(plans, opts...)
}

// Sweep request options; see the core package for full contracts.
var (
	// Grid1D sweeps one predicate over fractions/thresholds.
	Grid1D = core.Grid1D
	// Grid2D sweeps the two-predicate (ta, tb) grid.
	Grid2D = core.Grid2D
	// WithExecutor schedules cells on the given executor.
	WithExecutor = core.WithExecutor
	// WithParallelism is WithExecutor(NewExecutor(n)).
	WithParallelism = core.WithParallelism
	// WithCache memoizes measurements in a MeasureCache.
	WithCache = core.WithCache
	// WithCacheScope names the system behind the sources for cache keys.
	WithCacheScope = core.WithCacheScope
	// WithAdaptive switches to the adaptive multi-resolution sweeper.
	WithAdaptive = core.WithAdaptive
	// WithTolerance overrides the adaptive interpolation error bound with
	// a §3.4 practical-equivalence tolerance.
	WithTolerance = core.WithTolerance
	// WithProgress reports throttled Progress snapshots to the callback.
	WithProgress = core.WithProgress
	// WithProgressInterval tunes the progress throttle (0 = every cell).
	WithProgressInterval = core.WithProgressInterval
)

// SweepExecutor schedules a sweep's (plan, point) measurement cells;
// serial and parallel implementations produce identical maps.
type SweepExecutor = core.SweepExecutor

// ContextExecutor is a SweepExecutor that additionally supports
// cooperative cancellation; both built-in executors implement it.
type ContextExecutor = core.ContextExecutor

// SerialExecutor measures cells one at a time — the default.
type SerialExecutor = core.SerialExecutor

// ParallelExecutor fans cells out over a worker pool, claiming work from a
// shared counter so slow cells never strand idle workers.
type ParallelExecutor = core.ParallelExecutor

// NewExecutor maps a parallelism degree to an executor: 0 or 1 serial,
// n > 1 that many workers, negative all CPUs.
func NewExecutor(parallelism int) SweepExecutor { return core.NewExecutor(parallelism) }

// Adaptive multi-resolution sweeps ------------------------------------------

// AdaptiveConfig tunes the adaptive sweeper: coarse-pass depth, guard
// band, interpolation tolerances, contender net, landmark detector, and
// the optional exact result-size oracle.
type AdaptiveConfig = core.AdaptiveConfig

// Mesh1D records which cells of an adaptive 1-D sweep were measured
// versus interpolated.
type Mesh1D = core.Mesh1D

// Mesh2D records which cells of an adaptive 2-D sweep were measured
// versus interpolated, with per-phase cell counts.
type Mesh2D = core.Mesh2D

// DefaultAdaptiveConfig returns the adaptive-sweep tuning used by the
// study (about 37% of the exhaustive cells on the 13-plan 2-D study).
var DefaultAdaptiveConfig = core.DefaultAdaptiveConfig

// MeasureCache memoizes measurements across sweeps, keyed by
// (system scope, plan, point), with LRU eviction and concurrent-safe
// access. Wrap plan sources with (*MeasureCache).Wrap.
type MeasureCache = core.MeasureCache

// CacheStats is a snapshot of a MeasureCache's hit/miss/eviction counters.
type CacheStats = core.CacheStats

// NewMeasureCache creates a measurement cache holding at most capacity
// entries (capacity <= 0 means unbounded).
var NewMeasureCache = core.NewMeasureCache

// MapLandmarkConfig returns the landmark tolerances used for whole-map
// landmark analysis (and by adaptive sweeps' landmark stabilization).
var MapLandmarkConfig = core.MapLandmarkConfig

// FindLandmarks detects non-monotonic cost, non-flattening growth, and
// discontinuities on a 1-D cost curve.
var FindLandmarks = core.FindLandmarks

// DefaultLandmarkConfig returns detection tolerances suited to
// deterministic measurements.
var DefaultLandmarkConfig = core.DefaultLandmarkConfig

// ComputeOptimality builds the per-point optimal-plan-set map (Figure 10).
var ComputeOptimality = core.ComputeOptimality

// Scoreboard ranks plans by composite robustness score — the §4 benchmark.
var Scoreboard = core.Scoreboard

// CompareScoreboards flags plans whose robustness score regressed — the
// daily-regression alarm of §4.
var CompareScoreboards = core.CompareScoreboards

// PlanScore is one plan's robustness record on the scoreboard.
type PlanScore = core.PlanScore

// AnalyzeRegion computes area, components, and irregularity of an
// optimality region.
var AnalyzeRegion = core.AnalyzeRegion

// SummarizeRelative condenses a quotient grid.
var SummarizeRelative = core.SummarizeRelative

// PlanSourceFor adapts a built system and plan into a sweepable source.
// The source measures through the system's session pool, so it is safe for
// parallel sweep executors.
func PlanSourceFor(sys *System, p Plan) PlanSource {
	return PlanSource{
		ID: p.ID,
		Measure: func(ta, tb int64) Measurement {
			r := sys.RunShared(p, Query{TA: ta, TB: tb})
			return Measurement{Time: r.Time, Rows: r.Rows}
		},
	}
}

// The job service API ---------------------------------------------------------
//
// A Service turns sweeps from blocking function calls into submitted
// jobs: Submit returns a JobID immediately, Status/Watch observe the
// job, Result fetches the maps, Cancel aborts. The interface is
// transport-agnostic — NewLocalService schedules jobs in process on a
// bounded worker pool, NewRemoteService talks to a robustmapd daemon
// over JSON REST — so the same code serves both, and determinism makes
// the maps bit-identical either way. Sweep.Run remains as the one-job
// synchronous path; RunJob is its service-shaped equivalent.

// Service is the transport-agnostic job API over robustness-map sweeps.
type Service = service.Service

// JobRequest declares one sweep job: plan ids, table size, the standard
// selectivity axis, grid shape, parallelism, adaptivity, and admission
// priority. It serializes to JSON, so the same request means the same
// job locally and over HTTP.
type JobRequest = service.Request

// JobResult carries a succeeded job's maps (Map1D/Mesh1D or
// Map2D/Mesh2D, exactly as core.SweepResult would).
type JobResult = service.Result

// JobID identifies one submitted job within a service.
type JobID = service.JobID

// JobState is one point of the job lifecycle:
// queued → running → succeeded | failed | cancelled.
type JobState = service.JobState

// The job states. Succeeded, Failed, and Cancelled are terminal.
const (
	JobQueued    = service.JobQueued
	JobRunning   = service.JobRunning
	JobSucceeded = service.JobSucceeded
	JobFailed    = service.JobFailed
	JobCancelled = service.JobCancelled
)

// JobStatus is a point-in-time snapshot of one job: state, echoed
// request, latest progress, error text, and lifecycle stamps.
type JobStatus = service.JobStatus

// JobEvent is one observation on a Watch stream.
type JobEvent = service.Event

// LocalService is the in-process Service: a bounded worker pool over a
// FIFO-within-priority admission queue, per-job contexts, TTL job GC,
// and one measurement cache shared across jobs.
type LocalService = service.Local

// LocalServiceConfig parameterizes NewLocalService.
type LocalServiceConfig = service.LocalConfig

// The service error vocabulary; errors.Is works identically against a
// local service and across HTTP.
var (
	ErrInvalidJobRequest = service.ErrInvalidRequest
	ErrUnknownJob        = service.ErrUnknownJob
	ErrJobNotDone        = service.ErrJobNotDone
	ErrJobCancelled      = service.ErrJobCancelled
	ErrJobFailed         = service.ErrJobFailed
	ErrServiceDraining   = service.ErrDraining
	ErrJobQueueFull      = service.ErrQueueFull
	ErrTenantOverQuota   = service.ErrTenantQuota
	ErrWorkloadNotFound  = service.ErrSpecNotFound
)

// NewLocalService starts an in-process job service; its workers are
// ready when it returns. Release it with Close.
func NewLocalService(cfg LocalServiceConfig) *LocalService { return service.NewLocal(cfg) }

// NewRemoteService returns a Service backed by the robustmapd daemon at
// baseURL (e.g. "http://127.0.0.1:8421") — the same API as
// NewLocalService, over JSON REST with SSE progress streams.
func NewRemoteService(baseURL string) Service { return httpapi.NewClient(baseURL) }

// WaitJob blocks until the job reaches a terminal state, forwarding
// progress to onProgress (may be nil), and returns its result. The job
// keeps running if ctx is cancelled first; see RunJob for tied
// lifetimes.
func WaitJob(ctx context.Context, svc Service, id JobID, onProgress ProgressFunc) (*JobResult, error) {
	return service.Wait(ctx, svc, id, onProgress)
}

// RunJob is the one-call synchronous form over any Service: submit,
// stream progress, wait, fetch. Cancelling ctx cancels the job itself.
func RunJob(ctx context.Context, svc Service, req JobRequest, onProgress ProgressFunc) (*JobResult, error) {
	return service.Run(ctx, svc, req, onProgress)
}

// Declarative workload specs --------------------------------------------------
//
// A WorkloadSpec is a JSON-serializable scenario: a catalog (table,
// value distributions, indexes), plans as operator trees over the
// execution operators, and sweep axes. Specs travel inside JobRequest,
// so any scenario — including ones the paper never drew — sweeps
// identically in process, through a Service, or against a remote
// daemon, without recompiling anything. The paper's own 13-plan study
// is itself one embedded spec (PaperWorkload) compiled through the same
// registry.

// WorkloadSpec is one declarative, sweepable scenario.
type WorkloadSpec = spec.WorkloadSpec

// CatalogSpec declares a workload's dataset: table, row count, value
// distributions, and index definitions (incl. multi-column).
type CatalogSpec = spec.CatalogSpec

// PlanSpec is one fixed physical plan as an operator tree.
type PlanSpec = spec.PlanSpec

// PlanNode is one operator of a plan tree; see the spec package for the
// operator vocabulary.
type PlanNode = spec.PlanNode

// SystemSpec declares one engine configuration of a workload: index
// set, versioning, and plans.
type SystemSpec = spec.SystemSpec

// LoadWorkload reads and validates a workload spec file.
func LoadWorkload(path string) (*WorkloadSpec, error) { return spec.LoadFile(path) }

// ParseWorkload decodes and validates a workload spec from JSON bytes.
func ParseWorkload(data []byte) (*WorkloadSpec, error) { return spec.Parse(data) }

// PaperWorkload returns the paper's full study (catalog, 13 plans plus
// the Figure 1/2 extras, standard sweep) as a workload spec — the
// natural starting point for custom workload files.
func PaperWorkload() *WorkloadSpec { return plan.PaperWorkload() }

// SweepWorkload runs a workload spec's sweep through a Service and
// returns its maps. A nil svc runs it on an ephemeral in-process
// service. Cancelling ctx cancels the job itself. The request uses the
// workload's own sweep section (plans, axis, grid shape); build a
// JobRequest with the Workload field instead for per-call overrides.
func SweepWorkload(ctx context.Context, svc Service, ws *WorkloadSpec, onProgress ProgressFunc) (*JobResult, error) {
	if svc == nil {
		local := service.NewLocal(service.LocalConfig{Workers: 1})
		defer func() {
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			defer cancel()
			_ = local.Close(cctx)
		}()
		svc = local
	}
	return service.Run(ctx, svc, JobRequest{Workload: ws}, onProgress)
}

// Logical queries and the optimizer -------------------------------------------
//
// A QuerySpec is the logical counterpart of a PlanSpec: it declares
// what the query asks for, and the optimizer enumerates candidate
// operator trees over the query's catalog (scan, index fetches,
// RID intersections, key-filter scans, MDAM, covering joins; sort
// elision and TopN pushdown as wrappers), costs them with the same
// simclock charge vocabulary the engine measures in, and picks per
// sweep point. A JobRequest carries a Query the same way it carries a
// Workload — exactly one of Plans, Workload, or Query — and the job's
// Result then includes the candidate list plus regret and
// non-robustness maps scoring the pick against the oracle winner.

// QuerySpec declares a logical query: catalog, table, interval
// predicates, projection, order/limit, aggregates, and sweep axes.
type QuerySpec = spec.QuerySpec

// PlanCandidate is one optimizer-enumerated plan: the generated
// PlanSpec plus the cost-model shape behind its estimates.
type PlanCandidate = optimizer.Candidate

// CostModel estimates candidate costs in simclock units; it shares the
// charge vocabulary (seek, transfer, CPU per row/compare/hash) with the
// engine, so estimated and measured cost are directly comparable.
type CostModel = optimizer.Model

// CostEstimate is one explained candidate: id, description, estimated
// cost, eligibility at the point, and whether it was the pick.
type CostEstimate = optimizer.CostEstimate

// CandidateInfo is the result-carried summary of one candidate.
type CandidateInfo = service.CandidateInfo

// RegretMap1D overlays the optimizer's per-threshold picks on a
// measured 1-D map: regret quotients against the oracle winner and
// non-robustness flags.
type RegretMap1D = core.RegretMap1D

// RegretMap2D is the 2-D regret overlay; see RegretMap1D.
type RegretMap2D = core.RegretMap2D

// DefaultRegretThreshold is the regret factor above which a cell is
// flagged non-robust.
const DefaultRegretThreshold = core.DefaultRegretThreshold

// LoadQuery reads and validates a query spec file.
func LoadQuery(path string) (*QuerySpec, error) { return spec.LoadQueryFile(path) }

// ParseQuery decodes and validates a query spec from JSON bytes.
func ParseQuery(data []byte) (*QuerySpec, error) { return spec.ParseQuery(data) }

// PaperQuery returns the embedded paper workload as a logical query:
// the two-predicate selection the study's 13 hand-written plans answer,
// ready for the optimizer.
func PaperQuery() *QuerySpec { return optimizer.PaperQuery() }

// EnumerateQueryPlans enumerates the optimizer's candidate plans for a
// query — deterministically: the same query and catalog produce a
// byte-identical candidate list.
func EnumerateQueryPlans(q *QuerySpec) ([]PlanCandidate, error) { return optimizer.Enumerate(q) }

// NewCostModel builds the cost model for a query over the given table
// cardinality (rows <= 0 uses the query catalog's row count).
func NewCostModel(q *QuerySpec, rows int64) CostModel { return optimizer.NewModel(q, rows) }

// ExplainQuery costs every candidate at one point (ta, tb; tb < 0 for
// single-predicate queries) and marks the pick — what `robustmap
// -query q.json -explain` prints.
func ExplainQuery(m CostModel, cands []PlanCandidate, ta, tb int64) []CostEstimate {
	return m.Explain(cands, ta, tb)
}

// SweepQuery plans and measures a query spec through a Service and
// returns its maps with the optimizer overlay (Candidates plus
// Regret1D/Regret2D). A nil svc runs it on an ephemeral in-process
// service. Cancelling ctx cancels the job itself.
func SweepQuery(ctx context.Context, svc Service, q *QuerySpec, onProgress ProgressFunc) (*JobResult, error) {
	if svc == nil {
		local := service.NewLocal(service.LocalConfig{Workers: 1})
		defer func() {
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			defer cancel()
			_ = local.Close(cctx)
		}()
		svc = local
	}
	return service.Run(ctx, svc, JobRequest{Query: q}, onProgress)
}

// Rendering -----------------------------------------------------------------

// HeatMapASCII renders a binned grid for terminals.
var HeatMapASCII = vis.HeatMapASCII

// HeatMapSVG renders a binned grid as SVG with a legend.
var HeatMapSVG = vis.HeatMapSVG

// HeatMapPPM renders a binned grid as a PPM bitmap.
var HeatMapPPM = vis.HeatMapPPM

// LineChartASCII renders 1-D series on log-log axes for terminals.
var LineChartASCII = vis.LineChartASCII

// LineChartSVG renders 1-D series on log-log axes as SVG.
var LineChartSVG = vis.LineChartSVG

// Execution internals exposed for advanced use ------------------------------

// SpillPolicy selects how the external sort degrades past its memory
// budget: gracefully (spill only the overflow) or degenerately (spill the
// whole input) — the §4 experiment.
type SpillPolicy = exec.SpillPolicy

// Spill policies.
const (
	PolicyGraceful   = exec.PolicyGraceful
	PolicyDegenerate = exec.PolicyDegenerate
)
