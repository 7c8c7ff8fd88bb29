package plan_test

// The spec-compilation pin: the 13 paper plans (plus the Figure 1/2
// extras) are now compiled from the embedded workload spec, and this
// test holds them byte-identical to the original hand-written
// constructors. The legacy builders below are a frozen copy of the
// pre-spec plan.go — they are the reference, not shared code, so a
// compiler regression cannot silently move both sides.
//
// Run under -race in CI with a parallel executor, so the compiled
// builders also prove out as concurrency-safe plan sources.

import (
	"fmt"
	"reflect"
	"testing"

	"robustmap/internal/catalog"
	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/exec"
	"robustmap/internal/mdam"
	"robustmap/internal/plan"
	"robustmap/internal/record"
)

// --- Frozen legacy constructors (pre-spec plan.go, verbatim shapes) ---

func legacyAPred(c *catalog.Catalog, ta int64) exec.ColPred {
	t := c.Table(plan.TableName)
	return exec.ColPred{Col: t.Schema.MustOrdinal("a"), Hi: record.Int(ta)}
}

func legacyBPred(c *catalog.Catalog, tb int64) exec.ColPred {
	t := c.Table(plan.TableName)
	return exec.ColPred{Col: t.Schema.MustOrdinal("b"), Hi: record.Int(tb)}
}

func legacyScanRange(ix *catalog.Index, t int64) (lo, hi []byte) {
	return nil, ix.PrefixFor(record.Int(t))
}

func legacyTablePreds(c *catalog.Catalog, q plan.Query) []exec.ColPred {
	preds := []exec.ColPred{legacyAPred(c, q.TA)}
	if !q.OnlyA() {
		preds = append(preds, legacyBPred(c, q.TB))
	}
	return preds
}

func legacyIntersectionInputs(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) (sa, sb exec.RIDIter) {
	ixA, ixB := c.Index(plan.IdxA), c.Index(plan.IdxB)
	loA, hiA := legacyScanRange(ixA, q.TA)
	loB, hiB := legacyScanRange(ixB, q.TB)
	return exec.NewIndexRangeScan(ctx, ixA, loA, hiA),
		exec.NewIndexRangeScan(ctx, ixB, loB, hiB)
}

// legacyRIDsAsRows mirrors the unexported plan.ridsAsRows adapter.
type legacyRIDsAsRows struct {
	inner exec.RIDIter
	empty []exec.Row
	rows  exec.SliceRows
}

func (r *legacyRIDsAsRows) Open() { r.inner.Open() }
func (r *legacyRIDsAsRows) NextBatch(max int) (*exec.Batch, bool) {
	rids, ok := r.inner.NextRIDBatch(max)
	if !ok {
		return nil, false
	}
	for len(r.empty) < len(rids) {
		r.empty = append(r.empty, nil)
	}
	r.rows = exec.SliceRows{Rows: r.empty[:len(rids)]}
	return r.rows.NextBatch(len(rids))
}
func (r *legacyRIDsAsRows) Close() { r.inner.Close() }

// legacyPlans reconstructs every pre-spec plan by id.
func legacyPlans() map[string]plan.Plan {
	out := map[string]plan.Plan{}
	add := func(p plan.Plan) { out[p.ID] = p }

	add(plan.Plan{ID: "A1", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			return exec.NewTableScan(ctx, c.Table(plan.TableName), legacyTablePreds(c, q))
		}})
	add(plan.Plan{ID: "A2", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			ix := c.Index(plan.IdxA)
			lo, hi := legacyScanRange(ix, q.TA)
			var residual []exec.ColPred
			if !q.OnlyA() {
				residual = []exec.ColPred{legacyBPred(c, q.TB)}
			}
			return exec.NewImprovedFetch(ctx, c.Table(plan.TableName),
				exec.NewIndexRangeScan(ctx, ix, lo, hi), residual, 0)
		}})
	add(plan.Plan{ID: "A3", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			if q.OnlyA() {
				panic("plan A3 requires a two-predicate query")
			}
			ix := c.Index(plan.IdxB)
			lo, hi := legacyScanRange(ix, q.TB)
			return exec.NewImprovedFetch(ctx, c.Table(plan.TableName),
				exec.NewIndexRangeScan(ctx, ix, lo, hi),
				[]exec.ColPred{legacyAPred(c, q.TA)}, 0)
		}})
	add(plan.Plan{ID: "A4", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			sa, sb := legacyIntersectionInputs(ctx, c, q)
			j := exec.NewRIDMergeIntersect(ctx, sa, sb)
			return exec.NewImprovedFetch(ctx, c.Table(plan.TableName), j, nil, 0)
		}})
	add(plan.Plan{ID: "A5", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			sa, sb := legacyIntersectionInputs(ctx, c, q)
			j := exec.NewRIDMergeIntersect(ctx, sb, sa)
			return exec.NewImprovedFetch(ctx, c.Table(plan.TableName), j, nil, 0)
		}})
	add(plan.Plan{ID: "A6", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			sa, sb := legacyIntersectionInputs(ctx, c, q)
			j := exec.NewRIDHashIntersect(ctx, sa, sb)
			return exec.NewImprovedFetch(ctx, c.Table(plan.TableName), j, nil, 0)
		}})
	add(plan.Plan{ID: "A7", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			sa, sb := legacyIntersectionInputs(ctx, c, q)
			j := exec.NewRIDHashIntersect(ctx, sb, sa)
			return exec.NewImprovedFetch(ctx, c.Table(plan.TableName), j, nil, 0)
		}})
	add(plan.Plan{ID: "B1", System: "B",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			ix := c.Index(plan.IdxAB)
			lo, hi := legacyScanRange(ix, q.TA)
			var entryPreds []exec.ColPred
			if !q.OnlyA() {
				entryPreds = []exec.ColPred{{Col: 1, Hi: record.Int(q.TB)}}
			}
			rids := exec.NewIndexKeyFilterScan(ctx, ix, lo, hi, entryPreds)
			return exec.NewBitmapFetch(ctx, c.Table(plan.TableName), rids, nil)
		}})
	add(plan.Plan{ID: "B2", System: "B",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			if q.OnlyA() {
				panic("plan B2 requires a two-predicate query")
			}
			ix := c.Index(plan.IdxBA)
			lo, hi := legacyScanRange(ix, q.TB)
			entryPreds := []exec.ColPred{{Col: 1, Hi: record.Int(q.TA)}}
			rids := exec.NewIndexKeyFilterScan(ctx, ix, lo, hi, entryPreds)
			return exec.NewBitmapFetch(ctx, c.Table(plan.TableName), rids, nil)
		}})
	add(plan.Plan{ID: "B3", System: "B",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			ix := c.Index(plan.IdxA)
			lo, hi := legacyScanRange(ix, q.TA)
			var residual []exec.ColPred
			if !q.OnlyA() {
				residual = []exec.ColPred{legacyBPred(c, q.TB)}
			}
			return exec.NewBitmapFetch(ctx, c.Table(plan.TableName),
				exec.NewIndexRangeScan(ctx, ix, lo, hi), residual)
		}})
	add(plan.Plan{ID: "B4", System: "B",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			if q.OnlyA() {
				panic("plan B4 requires a two-predicate query")
			}
			ix := c.Index(plan.IdxB)
			lo, hi := legacyScanRange(ix, q.TB)
			return exec.NewBitmapFetch(ctx, c.Table(plan.TableName),
				exec.NewIndexRangeScan(ctx, ix, lo, hi),
				[]exec.ColPred{legacyAPred(c, q.TA)})
		}})
	add(plan.Plan{ID: "C1", System: "C",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			second := mdam.All()
			if !q.OnlyA() {
				second = mdam.LessThan(record.Int(q.TB))
			}
			return exec.NewMDAMScan(ctx, c.Index(plan.IdxAB),
				mdam.LessThan(record.Int(q.TA)), second)
		}})
	add(plan.Plan{ID: "C2", System: "C",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			if q.OnlyA() {
				return exec.NewMDAMScan(ctx, c.Index(plan.IdxBA),
					mdam.All(), mdam.LessThan(record.Int(q.TA)))
			}
			return exec.NewMDAMScan(ctx, c.Index(plan.IdxBA),
				mdam.LessThan(record.Int(q.TB)), mdam.LessThan(record.Int(q.TA)))
		}})
	add(plan.Plan{ID: "F1-trad", System: "A",
		Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			ix := c.Index(plan.IdxA)
			lo, hi := legacyScanRange(ix, q.TA)
			return exec.NewTraditionalFetch(ctx, c.Table(plan.TableName),
				exec.NewIndexRangeScan(ctx, ix, lo, hi), nil)
		}})
	for _, algo := range []string{"merge", "hash"} {
		for _, buildA := range []bool{true, false} {
			algo, buildA := algo, buildA
			id := fmt.Sprintf("F2-%s-%s", algo, map[bool]string{true: "ab", false: "ba"}[buildA])
			add(plan.Plan{ID: id, System: "A",
				Build: func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
					ixA, ixB := c.Index(plan.IdxA), c.Index(plan.IdxB)
					loA, hiA := legacyScanRange(ixA, q.TA)
					sa := exec.NewIndexRangeScan(ctx, ixA, loA, hiA)
					sb := exec.NewIndexRangeScan(ctx, ixB, nil, nil)
					var j exec.RIDIter
					switch {
					case algo == "merge":
						if buildA {
							j = exec.NewRIDMergeIntersect(ctx, sa, sb)
						} else {
							j = exec.NewRIDMergeIntersect(ctx, sb, sa)
						}
					case buildA:
						j = exec.NewRIDHashIntersect(ctx, sa, sb)
					default:
						j = exec.NewRIDHashIntersect(ctx, sb, sa)
					}
					return &legacyRIDsAsRows{inner: j}
				}})
		}
	}
	return out
}

// --- The equivalence pins -------------------------------------------------

const equivRows = 4096

func equivConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Rows = equivRows
	return cfg
}

func buildEquivSystems(t *testing.T) map[string]*engine.System {
	t.Helper()
	systems := map[string]*engine.System{}
	for name, build := range map[string]func(engine.Config) (*engine.System, error){
		"A": engine.SystemA, "B": engine.SystemB, "C": engine.SystemC,
	} {
		sys, err := build(equivConfig())
		if err != nil {
			t.Fatalf("build system %s: %v", name, err)
		}
		systems[name] = sys
	}
	return systems
}

// sourcesFor adapts a plan list into concurrency-safe sweep sources.
func sourcesFor(systems map[string]*engine.System, plans []plan.Plan) []core.PlanSource {
	out := make([]core.PlanSource, len(plans))
	for i, p := range plans {
		p := p
		sys := systems[p.System]
		out[i] = core.PlanSource{ID: p.ID, Measure: func(ta, tb int64) core.Measurement {
			r := sys.RunShared(p, plan.Query{TA: ta, TB: tb})
			return core.Measurement{Time: r.Time, Rows: r.Rows}
		}}
	}
	return out
}

// TestSpecCompiledGridsMatchLegacy sweeps the full 13-plan 2-D study
// twice — once through the frozen legacy constructors, once through the
// spec-compiled plans — and requires the complete maps (times, rows),
// the winner grid, and every plan's landmark grid to be identical.
func TestSpecCompiledGridsMatchLegacy(t *testing.T) {
	systems := buildEquivSystems(t)
	legacy := legacyPlans()

	fracs, ths := core.SweepAxis(equivRows, 4)
	grid := core.Grid2D(fracs, fracs, ths, ths)

	specPlans := plan.AllPlans()
	legacyList := make([]plan.Plan, len(specPlans))
	for i, p := range specPlans {
		legacyList[i] = legacy[p.ID]
	}

	run := func(plans []plan.Plan) *core.Map2D {
		res, err := core.NewSweep(sourcesFor(systems, plans), grid,
			core.WithParallelism(2)).Run(t.Context())
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res.Map2D
	}
	specMap := run(specPlans)
	legacyMap := run(legacyList)

	if !reflect.DeepEqual(specMap, legacyMap) {
		t.Fatalf("spec-compiled 2-D map differs from legacy constructors")
	}
	if !reflect.DeepEqual(specMap.WinnerGrid(), legacyMap.WinnerGrid()) {
		t.Fatal("winner grids differ")
	}
	if !reflect.DeepEqual(specMap.Rows, legacyMap.Rows) {
		t.Fatal("rows grids differ")
	}
	cfg := core.MapLandmarkConfig()
	for _, p := range specPlans {
		if !reflect.DeepEqual(specMap.LandmarkGrid(p.ID, cfg), legacyMap.LandmarkGrid(p.ID, cfg)) {
			t.Fatalf("plan %s: landmark grids differ", p.ID)
		}
	}
}

// TestSpecCompiled1DMatchesLegacy covers the single-predicate path: the
// Figure 2 plan set (which exercises rids_as_rows, the traditional
// fetch, and the if_param/absent_all machinery at TB < 0).
func TestSpecCompiled1DMatchesLegacy(t *testing.T) {
	systems := buildEquivSystems(t)
	legacy := legacyPlans()

	fracs, ths := core.SweepAxis(equivRows, 4)
	grid := core.Grid1D(fracs, ths)

	specPlans := plan.Figure2Plans()
	legacyList := make([]plan.Plan, len(specPlans))
	for i, p := range specPlans {
		legacyList[i] = legacy[p.ID]
	}
	run := func(plans []plan.Plan) *core.Map1D {
		res, err := core.NewSweep(sourcesFor(systems, plans), grid,
			core.WithParallelism(2)).Run(t.Context())
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res.Map1D
	}
	if specMap, legacyMap := run(specPlans), run(legacyList); !reflect.DeepEqual(specMap, legacyMap) {
		t.Fatalf("spec-compiled 1-D map differs from legacy constructors")
	}
}

// TestSpecCompiledPanicsMatchLegacy pins the two-predicate guard: A3,
// B2, and B4 panic on single-predicate queries with the same message
// the hand-written constructors used.
func TestSpecCompiledPanicsMatchLegacy(t *testing.T) {
	for _, id := range []string{"A3", "B2", "B4"} {
		p := plan.ByID(plan.AllPlans(), id)
		func() {
			defer func() {
				want := fmt.Sprintf("plan %s requires a two-predicate query", id)
				if got := recover(); got != want {
					t.Errorf("plan %s panic = %v, want %q", id, got, want)
				}
			}()
			p.Build(nil, nil, plan.Query{TA: 1, TB: -1})
		}()
	}
}
