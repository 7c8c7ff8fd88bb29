package plan_test

// The pull-granularity pin. Every iterator has one pull method,
// NextBatch(max), and a cell's virtual time must be a property of the
// plan, never of the bound its root happens to be pulled at. Bound 1 is
// row-at-a-time execution — every operator in the tree then runs exactly
// the per-row sequence of page accesses and charges — and BatchCapacity
// is what exec.Drain uses. These tests sweep the full paper plan sets
// with each plan's root pinned to bounds 1, 3 and BatchCapacity and
// require the complete maps (times, rows, winners, landmarks) to be
// identical, so any batched code path that drifts from the row-at-a-time
// one by even one virtual nanosecond fails loudly.

import (
	"reflect"
	"testing"

	"robustmap/internal/catalog"
	"robustmap/internal/core"
	"robustmap/internal/exec"
	"robustmap/internal/plan"
)

// pulledAt pins the bound a plan's root is pulled at, whatever its
// consumer (exec.Drain) asks for.
type pulledAt struct {
	exec.RowIter
	max int
}

func (p pulledAt) NextBatch(int) (*exec.Batch, bool) { return p.RowIter.NextBatch(p.max) }

// atBound returns a copy of the plan list whose roots are pulled at max.
func atBound(plans []plan.Plan, max int) []plan.Plan {
	out := make([]plan.Plan, len(plans))
	for i, p := range plans {
		build := p.Build
		p.Build = func(ctx *exec.Ctx, c *catalog.Catalog, q plan.Query) exec.RowIter {
			return pulledAt{build(ctx, c, q), max}
		}
		out[i] = p
	}
	return out
}

var pullBounds = []int{1, 3, exec.BatchCapacity}

// TestBatchedGridsMatchRowEngine sweeps the 13-plan 2-D study at every
// pull bound — bound 1 being the row engine — and requires identical
// results.
func TestBatchedGridsMatchRowEngine(t *testing.T) {
	systems := buildEquivSystems(t)

	fracs, ths := core.SweepAxis(equivRows, 4)
	grid := core.Grid2D(fracs, fracs, ths, ths)

	run := func(plans []plan.Plan) *core.Map2D {
		res, err := core.NewSweep(sourcesFor(systems, plans), grid,
			core.WithParallelism(2)).Run(t.Context())
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res.Map2D
	}
	rowed := run(atBound(plan.AllPlans(), pullBounds[0]))
	cfg := core.MapLandmarkConfig()
	for _, max := range pullBounds[1:] {
		batched := run(atBound(plan.AllPlans(), max))
		if !reflect.DeepEqual(batched, rowed) {
			t.Fatalf("2-D map pulled at bound %d differs from row-at-a-time execution", max)
		}
		if !reflect.DeepEqual(batched.WinnerGrid(), rowed.WinnerGrid()) {
			t.Fatalf("bound %d: winner grids differ", max)
		}
		if !reflect.DeepEqual(batched.Rows, rowed.Rows) {
			t.Fatalf("bound %d: rows grids differ", max)
		}
		for _, p := range plan.AllPlans() {
			if !reflect.DeepEqual(batched.LandmarkGrid(p.ID, cfg), rowed.LandmarkGrid(p.ID, cfg)) {
				t.Fatalf("bound %d, plan %s: landmark grids differ", max, p.ID)
			}
		}
	}
}

// TestBatched1DMatchesRowEngine covers the Figure 2 plan set, which
// exercises the traditional fetch, rids_as_rows, and single-predicate
// machinery at every pull bound.
func TestBatched1DMatchesRowEngine(t *testing.T) {
	systems := buildEquivSystems(t)

	fracs, ths := core.SweepAxis(equivRows, 4)
	grid := core.Grid1D(fracs, ths)

	run := func(plans []plan.Plan) *core.Map1D {
		res, err := core.NewSweep(sourcesFor(systems, plans), grid,
			core.WithParallelism(2)).Run(t.Context())
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res.Map1D
	}
	rowed := run(atBound(plan.Figure2Plans(), pullBounds[0]))
	for _, max := range pullBounds[1:] {
		batched := run(atBound(plan.Figure2Plans(), max))
		if !reflect.DeepEqual(batched, rowed) {
			t.Fatalf("1-D map pulled at bound %d differs from row-at-a-time execution", max)
		}
	}
}
