package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/optimizer"
	"robustmap/internal/plan"
	"robustmap/internal/spec"
)

// ResolvedSweep is a Request made measurable: the bound plan sources,
// their cache scopes, the axis, and the adaptive sweeper's result-size
// oracle.
type ResolvedSweep struct {
	// Sources are the measurable plans, in request order. They must be
	// safe for concurrent sweep workers.
	Sources []core.PlanSource
	// Scopes[i] names the system behind Sources[i] for measurement-cache
	// keys (one shared cache serves several systems without collisions).
	Scopes []string
	// Fractions and Thresholds are the request's selectivity axis (used
	// for both axes of a 2-D grid).
	Fractions  []float64
	Thresholds []int64
	// ResultSize, when non-nil, is the exact result-size oracle handed
	// to adaptive sweeps.
	ResultSize func(ta, tb int64) int64
	// Finish, when non-nil, post-processes the assembled Result before
	// the job succeeds — query requests use it to overlay the
	// optimizer's picks and the regret grids on the measured maps. It
	// is pure computation over the maps, so results stay deterministic
	// at any parallelism.
	Finish func(res *Result) error
}

// Resolver turns Requests into measurable sweeps. Check runs at Submit
// and must be cheap (plan-id validation); Resolve runs on a worker
// goroutine when the job starts and may build engine systems. Resolvers
// must be safe for concurrent use.
type Resolver interface {
	Check(req Request) error
	Resolve(req Request) (*ResolvedSweep, error)
}

// maxCachedSystems bounds the resolver's built-system cache: three
// systems at a few distinct row counts covers every workload the CLIs
// and studies generate, and eviction (least recently used) keeps a
// daemon fed adversarial per-request row counts at a bounded footprint.
// An evicted system is simply rebuilt on next use; jobs holding it keep
// measuring on their reference.
const maxCachedSystems = 9

// EngineResolver is the default Resolver: it resolves plan ids against
// the paper's plan catalog and measures them on the simulated systems
// A, B, and C, building each (system, rows) pair once and reusing it
// across jobs — systems are immutable after build and measure through
// their session pools, so any number of concurrent jobs can share one.
// Builds of distinct systems run concurrently; only same-key callers
// wait on each other.
type EngineResolver struct {
	base engine.Config

	// queries is the optimizer's plan cache: candidate lists memoized by
	// query structure hash, shared across jobs.
	queries *optimizer.Cache

	mu      sync.Mutex
	systems map[sysKey]*sysEntry
}

type sysKey struct {
	name string
	rows int64
}

// sysEntry is one cached build: the once gates the expensive build so
// the resolver mutex is never held across it.
type sysEntry struct {
	once     sync.Once
	sys      *engine.System
	err      error
	lastUsed time.Time
}

// NewEngineResolver returns a resolver measuring on systems built from
// the given base configuration (rows are overridden per request).
func NewEngineResolver(base engine.Config) *EngineResolver {
	return &EngineResolver{base: base, queries: optimizer.NewCache(),
		systems: make(map[sysKey]*sysEntry)}
}

// catalog maps every known plan id to its plan; twoPred marks the plans
// of the two-predicate study (the only ones a 2-D grid accepts) and
// needsTB those of them that are meaningless without the b threshold
// (the only ones a 1-D axis refuses), read off the embedded paper
// workload's plan specs exactly as for a user-supplied workload.
var catalog, twoPred, needsTB = func() (map[string]plan.Plan, map[string]bool, map[string]bool) {
	all := map[string]plan.Plan{}
	two := map[string]bool{}
	needs := map[string]bool{}
	for _, p := range plan.AllPlans() {
		all[p.ID] = p
		two[p.ID] = true
	}
	for _, p := range plan.Figure2Plans() {
		if _, ok := all[p.ID]; !ok {
			all[p.ID] = p
		}
	}
	ws := plan.PaperWorkload()
	for id := range all {
		if ps, _ := ws.Plan(id); ps != nil && ps.NeedsTB() {
			needs[id] = true
		}
	}
	return all, two, needs
}()

// KnownPlanIDs lists every plan id a Request may name, sorted.
func KnownPlanIDs() []string {
	out := make([]string, 0, len(catalog))
	for id := range catalog {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// PlanInfo describes one built-in plan — the discovery shape served by
// GET /v1/plans so clients can learn valid Request.Plans values.
type PlanInfo struct {
	ID          string `json:"id"`
	System      string `json:"system"`
	Description string `json:"description"`
}

// BuiltinPlans lists every plan a workload-less Request may name,
// sorted by id.
func BuiltinPlans() []PlanInfo {
	out := make([]PlanInfo, 0, len(catalog))
	for _, id := range KnownPlanIDs() {
		p := catalog[id]
		out = append(out, PlanInfo{ID: p.ID, System: p.System, Description: p.Description})
	}
	return out
}

// PlanShapeInfo describes one plan shape the optimizer can enumerate
// from a query request — the query API's counterpart of PlanInfo.
// Shape is the candidate-id pattern the shape produces.
type PlanShapeInfo struct {
	Shape       string `json:"shape"`
	Description string `json:"description"`
}

// QueryPlanShapes lists the optimizer's enumerable plan shapes, served
// by GET /v1/plans so HTTP clients can discover the query surface.
func QueryPlanShapes() []PlanShapeInfo {
	return []PlanShapeInfo{
		{Shape: "scan", Description: "full table scan, all predicates as residuals"},
		{Shape: "fetch-trad-<index>", Description: "single-column index range scan, traditional row-at-a-time fetch"},
		{Shape: "fetch-impr-<index>", Description: "single-column index range scan, improved (RID-sorted) fetch"},
		{Shape: "fetch-bitmap-<index>", Description: "single-column index range scan, bitmap fetch"},
		{Shape: "merge-<index>-<index>", Description: "RID merge intersection of two index range scans, improved fetch"},
		{Shape: "hash-<index>-<index>", Description: "RID hash intersection of two index range scans, improved fetch"},
		{Shape: "keyfilter-<index>", Description: "composite-index range scan with in-index entry predicates, bitmap fetch"},
		{Shape: "mdam-<index>", Description: "MDAM over a covering composite index, index-only"},
		{Shape: "cover-merge-<index>-<index>", Description: "covering RID join of two single-column indexes (merge), no base access"},
		{Shape: "cover-hash-<index>-<index>", Description: "covering RID join of two single-column indexes (hash), no base access"},
		{Shape: "hash-<t1>.<t2>[.<t3>...]", Description: "left-deep hash join in the named table order: each added table builds, the accumulated rows probe"},
		{Shape: "merge-<t1>.<t2>[.<t3>...]", Description: "left-deep sort-merge join in the named table order, both sides sorted on the step's equi-join keys"},
		{Shape: "inlj-<t1>.<t2>[.<t3>...]", Description: "left-deep index nested-loop join: each added table reached through a built single-column index on its join key"},
		{Shape: "<join shape>-ix", Description: "join variant driving the first table through an index on a bounded indexed predicate (improved fetch) instead of a full scan"},
		{Shape: "sort / limit / hash_agg wrappers", Description: "order_by adds a sort unless the candidate's natural order covers it; limit rides on top (TopN pushdown on ordered candidates); group_by/aggs add a hash aggregation"},
	}
}

// Check validates the request's plan ids — against the built-in catalog,
// or against its workload spec, whose plan trees are fully compiled
// (operator vocabulary, schema ordinals, index references) so a bad
// workload is rejected at Submit, not when the job starts.
func (r *EngineResolver) Check(req Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if req.Workload != nil {
		_, err := compileWorkloadRequest(req)
		return err
	}
	if req.Query != nil {
		_, _, err := r.planQuery(req.Query)
		return err
	}
	for _, id := range req.Plans {
		p, ok := catalog[id]
		if !ok {
			return fmt.Errorf("%w: unknown plan %q (known: %s)",
				ErrInvalidRequest, id, strings.Join(KnownPlanIDs(), ", "))
		}
		if req.Grid2D && !twoPred[p.ID] {
			return fmt.Errorf("%w: plan %q is a single-predicate Figure 1/2 extra; 2-D grids take the two-predicate study plans",
				ErrInvalidRequest, id)
		}
		// The converse: at a 1-D point tb is -1, so a plan that reaches
		// through the b threshold panics in the compiler or measures an
		// empty range and trips the row cross-check mid-job.
		if !req.Grid2D && needsTB[p.ID] {
			return fmt.Errorf("%w: plan %q requires a two-predicate query; sweep it on a 2-D grid (grid_2d)",
				ErrInvalidRequest, id)
		}
	}
	return nil
}

// compileWorkloadRequest compiles a workload-carrying request's spec
// and checks its plan references — shared by Check (Submit-time
// rejection) and Resolve (which keeps the compiled result, so a job
// compiles once when it runs).
func compileWorkloadRequest(req Request) (*plan.CompiledWorkload, error) {
	cw, err := plan.CompileWorkload(req.Workload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	for _, id := range req.EffectivePlans() {
		if _, ok := cw.Plan(id); !ok {
			return nil, fmt.Errorf("%w: workload %q has no plan %q (declared: %s)",
				ErrInvalidRequest, req.Workload.Name, id,
				strings.Join(req.Workload.PlanIDs(), ", "))
		}
		// A plan that needs the b threshold — flagged requires_tb, or
		// referencing param "tb" without an if_param/absent_all guard —
		// would panic or quietly measure empty ranges at 1-D points;
		// reject the mismatch at admission instead.
		if ps, _ := req.Workload.Plan(id); ps != nil && ps.NeedsTB() && !req.EffectiveGrid2D() {
			return nil, fmt.Errorf("%w: workload plan %q requires a two-predicate query; sweep it on a 2-D grid (grid_2d)",
				ErrInvalidRequest, id)
		}
	}
	return cw, nil
}

// planQuery runs the optimizer over a query request: enumerate the
// candidate plans (memoized by query structure), synthesize the
// one-system workload that measures them, and compile it through the
// same registry as hand-written specs — so a query whose enumerated
// trees cannot compile (schema mismatch against the generator, say) is
// rejected at Submit like any bad workload.
func (r *EngineResolver) planQuery(q *spec.QuerySpec) ([]optimizer.Candidate, *queryPlan, error) {
	cands, err := r.queries.Candidates(q)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	ws := optimizer.Workload(q, cands)
	cw, err := plan.CompileWorkload(ws)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return cands, &queryPlan{ws: ws, cw: cw}, nil
}

// queryPlan is a query request's synthesized measurement workload.
type queryPlan struct {
	ws *spec.WorkloadSpec
	cw *plan.CompiledWorkload
}

// system returns the built system cached under key, building it with
// build on first use. The mutex guards only the cache map; the build
// itself runs under the entry's once, so concurrent jobs needing
// different systems build in parallel and same-key callers share one
// build.
func (r *EngineResolver) system(k sysKey, build func() (*engine.System, error)) (*engine.System, error) {
	r.mu.Lock()
	e, ok := r.systems[k]
	if !ok {
		e = &sysEntry{}
		r.systems[k] = e
		r.evictLocked(k)
	}
	e.lastUsed = time.Now()
	r.mu.Unlock()

	e.once.Do(func() { e.sys, e.err = build() })
	return e.sys, e.err
}

// builtinSystem builds one of the paper's systems A, B, or C at the
// given cardinality.
func (r *EngineResolver) builtinSystem(name string, rows int64) (*engine.System, error) {
	return r.system(sysKey{name: name, rows: rows}, func() (*engine.System, error) {
		cfg := r.base
		cfg.Rows = rows
		switch name {
		case "A":
			return engine.SystemA(cfg)
		case "B":
			return engine.SystemB(cfg)
		case "C":
			return engine.SystemC(cfg)
		default:
			return nil, fmt.Errorf("service: plan catalog names unknown system %q", name)
		}
	})
}

// workloadSystem builds one workload-spec system. The cache key carries
// the workload's content hash, so two workloads that happen to share a
// system name (or a workload shadowing the built-in "A") can never
// share a built dataset.
func (r *EngineResolver) workloadSystem(ws *spec.WorkloadSpec, hash string,
	sys *spec.SystemSpec, rows int64) (*engine.System, error) {

	return r.system(sysKey{name: "w/" + hash + "/" + sys.Name, rows: rows}, func() (*engine.System, error) {
		if ws.Catalog.Multi() {
			// Multi-table catalogs carry every cardinality themselves
			// (Request.Rows overrides are rejected at Validate); the build
			// maps the declared tables, FK edges, and the system's index
			// selection straight onto the engine's multi-table config.
			cfg := r.base
			cfg.Rows, cfg.TableName, cfg.Indexes, cfg.IndexDefs = 0, "", nil, nil
			cfg.Versioned = sys.Versioned
			for i := range ws.Catalog.Tables {
				t := &ws.Catalog.Tables[i]
				tc := engine.TableConfig{Name: t.Name, Rows: t.Rows, Seed: t.Seed,
					PayloadBytes: t.PayloadBytes, ZipfA: t.ZipfA, ZipfB: t.ZipfB}
				for _, fk := range t.ForeignKeys {
					tc.ForeignKeys = append(tc.ForeignKeys, engine.FKDef{
						Column: fk.Column, RefTable: fk.RefTable,
						Containment: fk.Containment, FanoutZipf: fk.FanoutZipf})
				}
				cfg.Tables = append(cfg.Tables, tc)
			}
			for _, name := range sys.Indexes {
				def := ws.Catalog.Index(name)
				cfg.IndexDefs = append(cfg.IndexDefs,
					engine.IndexDef{Name: def.Name, Table: def.Table, Columns: def.Columns})
			}
			return engine.BuildSystem(sys.Name, cfg)
		}
		t := ws.Catalog.Table()
		cfg := r.base
		cfg.Rows = rows
		cfg.Versioned = sys.Versioned
		cfg.TableName = t.Name
		cfg.ZipfA, cfg.ZipfB = t.ZipfA, t.ZipfB
		if t.Seed != 0 {
			cfg.Seed = t.Seed
		}
		if t.PayloadBytes != 0 {
			cfg.PayloadBytes = t.PayloadBytes
		}
		cfg.IndexDefs = nil
		for _, name := range sys.Indexes {
			def := ws.Catalog.Index(name)
			cfg.IndexDefs = append(cfg.IndexDefs,
				engine.IndexDef{Name: def.Name, Columns: def.Columns})
		}
		cfg.Indexes = nil
		return engine.BuildSystem(sys.Name, cfg)
	})
}

// evictLocked drops the least-recently-used cached system beyond the
// capacity, never the entry just inserted.
func (r *EngineResolver) evictLocked(justAdded sysKey) {
	for len(r.systems) > maxCachedSystems {
		var (
			oldest   sysKey
			oldestAt time.Time
			found    bool
		)
		for k, e := range r.systems {
			if k == justAdded {
				continue
			}
			if !found || e.lastUsed.Before(oldestAt) {
				oldest, oldestAt, found = k, e.lastUsed, true
			}
		}
		if !found {
			return
		}
		delete(r.systems, oldest)
	}
}

// Resolve binds the request's plans to their systems. The first plan's
// system answers the result-size oracle (all systems share one
// dataset).
func (r *EngineResolver) Resolve(req Request) (*ResolvedSweep, error) {
	// The workload branch validates through compileWorkloadRequest
	// directly (rather than via Check) so the compiled plans are kept —
	// a job's spec compiles once when it runs, not once to check and
	// again to bind.
	var (
		cw    *plan.CompiledWorkload
		cands []optimizer.Candidate
	)
	// A query request resolves exactly like a workload request over the
	// optimizer's synthesized workload, plus a Finish overlay below.
	ws, ids := req.Workload, req.EffectivePlans()
	switch {
	case req.Workload != nil:
		if err := req.Validate(); err != nil {
			return nil, err
		}
		var err error
		if cw, err = compileWorkloadRequest(req); err != nil {
			return nil, err
		}
	case req.Query != nil:
		if err := req.Validate(); err != nil {
			return nil, err
		}
		var (
			qp  *queryPlan
			err error
		)
		if cands, qp, err = r.planQuery(req.Query); err != nil {
			return nil, err
		}
		ws, cw = qp.ws, qp.cw
		ids = ws.SweepPlans()
	default:
		if err := r.Check(req); err != nil {
			return nil, err
		}
	}
	rows := req.EffectiveRows(r.base.Rows)
	rs := &ResolvedSweep{}
	rs.Fractions, rs.Thresholds = core.SweepAxis(rows, req.EffectiveMaxExp())

	// lookup maps a plan id to its Plan and built system; scope names
	// the (dataset, system, cardinality) behind it for measurement-cache
	// keys. Workload scopes carry the spec's content hash, so a custom
	// workload can never poison the built-in catalog's cache entries
	// (or another workload's).
	var lookup func(id string) (plan.Plan, *engine.System, string, error)
	if ws != nil {
		hash := ws.Hash()
		lookup = func(id string) (plan.Plan, *engine.System, string, error) {
			p, _ := cw.Plan(id)
			_, sysSpec := ws.Plan(id)
			sys, err := r.workloadSystem(ws, hash, sysSpec, rows)
			if err != nil {
				return plan.Plan{}, nil, "", err
			}
			return p, sys, fmt.Sprintf("w/%s/%s/%d", hash, sysSpec.Name, rows), nil
		}
	} else {
		lookup = func(id string) (plan.Plan, *engine.System, string, error) {
			p := catalog[id]
			sys, err := r.builtinSystem(p.System, rows)
			if err != nil {
				return plan.Plan{}, nil, "", err
			}
			// The scope carries the row count, not just the system name:
			// one daemon cache serves jobs of different cardinalities,
			// and the same (plan, ta, tb) cell measures differently on a
			// 2^14-row table than on a 2^15-row one.
			return p, sys, fmt.Sprintf("%s/%d", sys.Name, rows), nil
		}
	}

	var oracle *engine.System
	for _, id := range ids {
		pp, sys, scope, err := lookup(id)
		if err != nil {
			return nil, err
		}
		if oracle == nil {
			oracle = sys
		}
		rs.Sources = append(rs.Sources, core.PlanSource{
			ID: pp.ID,
			Measure: func(ta, tb int64) core.Measurement {
				res := sys.RunShared(pp, plan.Query{TA: ta, TB: tb})
				return core.Measurement{Time: res.Time, Rows: res.Rows}
			},
		})
		rs.Scopes = append(rs.Scopes, scope)
	}
	switch {
	case oracle != nil && !oracle.Multi():
		sys := oracle
		rs.ResultSize = func(ta, tb int64) int64 {
			return sys.ResultSize(plan.Query{TA: ta, TB: tb})
		}
	case oracle != nil && req.Query != nil && len(req.Query.Joins) > 0:
		// Multi-table systems cannot answer ResultSize from (a, b) pairs;
		// a join query's exact sizes come from the retained column data
		// instead. Multi-table workload requests get no oracle — their
		// plan trees, not the request, define the result semantics.
		rs.ResultSize = joinResultSize(oracle, req.Query)
	}
	if q := req.Query; q != nil {
		model := optimizer.NewModel(q, rows)
		rs.Finish = func(res *Result) error {
			for _, c := range cands {
				res.Candidates = append(res.Candidates, CandidateInfo{
					ID:          c.Plan.ID,
					Description: c.Plan.Description,
					RequiresTB:  c.Plan.RequiresTB || c.Plan.NeedsTB(),
				})
			}
			// Picks come from the estimated cost model alone (pure
			// computation), regret from the measured map — both
			// independent of how the sweep was parallelized.
			switch {
			case res.Map2D != nil:
				picks := model.Picks2D(cands, res.Map2D.TA, res.Map2D.TB)
				res.Regret2D = core.NewRegretMap2D(res.Map2D, picks, core.DefaultRegretThreshold)
			case res.Map1D != nil:
				picks := model.Picks1D(cands, res.Map1D.Thresholds)
				res.Regret1D = core.NewRegretMap1D(res.Map1D, picks, core.DefaultRegretThreshold)
			}
			return nil
		}
	}
	return rs, nil
}

// joinResultSize builds an exact result-size oracle for a join query
// from the multi-table system's retained column data: weights propagate
// bottom-up over the query's join tree (rooted at the driving table),
// so each root row's weight is the number of join-output rows it heads
// that satisfy every predicate. Exactly the inner-join semantics the
// compiled candidate plans execute, computed off the cost model's
// books — the counterpart of System.ResultSize for the single-table
// study.
func joinResultSize(sys *engine.System, q *spec.QuerySpec) func(ta, tb int64) int64 {
	edges := q.JoinEdges()
	predsOf := map[string][]spec.PredSpec{}
	for i := range q.Predicates {
		p := q.Predicates[i]
		if t := q.Catalog.ColumnTable(p.Column); t != nil {
			predsOf[t.Name] = append(predsOf[t.Name], p)
		}
	}
	return func(ta, tb int64) int64 {
		// weigh returns one weight per row of table: the matching joined
		// rows of the subtree reached without crossing back over `from`.
		var weigh func(table, from string) []int64
		weigh = func(table, from string) []int64 {
			rows := sys.TableRows(table)
			w := make([]int64, rows)
			for i := range w {
				w[i] = 1
			}
			for _, p := range predsOf[table] {
				lo, hi, active := predBounds(&p, ta, tb)
				if !active {
					continue
				}
				col := sys.ColumnData(table, p.Column)
				for i, v := range col {
					if v < lo || v >= hi {
						w[i] = 0
					}
				}
			}
			for _, e := range edges {
				switch {
				case e.Child == table && e.Parent != from:
					// This table holds the FK: each row keeps its single
					// parent match iff the value is contained.
					sub := weigh(e.Parent, table)
					fk := sys.ColumnData(table, e.FK)
					for i := range w {
						if w[i] == 0 {
							continue
						}
						if j := fk[i]; j >= 0 && j < int64(len(sub)) {
							w[i] *= sub[j]
						} else {
							w[i] = 0
						}
					}
				case e.Parent == table && e.Child != from:
					// The child holds the FK: fold its weights onto the
					// parent ids they reference (fanout).
					sub := weigh(e.Child, table)
					fk := sys.ColumnData(e.Child, e.FK)
					acc := make([]int64, rows)
					for i, j := range fk {
						if j >= 0 && j < rows {
							acc[j] += sub[i]
						}
					}
					for i := range w {
						w[i] *= acc[i]
					}
				}
			}
			return w
		}
		var n int64
		for _, x := range weigh(q.Table, "") {
			n += x
		}
		return n
	}
}

// predBounds resolves one predicate's half-open [lo, hi) interval at a
// query point; active is false when its guard drops it (tb absent).
func predBounds(p *spec.PredSpec, ta, tb int64) (lo, hi int64, active bool) {
	if p.IfParam == spec.ParamTB && tb < 0 {
		return 0, 0, false
	}
	val := func(v *spec.ValueSpec, dflt int64) int64 {
		switch {
		case v == nil:
			return dflt
		case v.Param == spec.ParamTA:
			return ta
		case v.Param == spec.ParamTB:
			return tb
		case v.Const != nil:
			return *v.Const
		}
		return dflt
	}
	const minI, maxI = int64(-1 << 63), int64(1<<63 - 1)
	return val(p.Lo, minI), val(p.Hi, maxI), true
}
