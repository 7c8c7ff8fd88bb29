// Package plan defines the fixed query execution plans of the paper's
// study. The paper "eliminate[s] choices in query optimization using hints
// on index usage, join order, join algorithm, and memory allocation"; this
// package is those hints made explicit — each Plan is a complete physical
// plan constructor with no optimizer in the loop.
//
// Two query shapes are used:
//
//   - Select1D (Figures 1 and 2): a single range predicate a < ta over the
//     lineitem-like table; Figure 2's variant needs only columns (a, b), so
//     index-join plans can cover it.
//   - Select2D (Figures 4 through 10): the conjunction a < ta AND b < tb.
//
// Thirteen distinct plans cover the three systems, matching the paper's
// count ("a total of 13 distinct plans across all systems"): seven in
// System A, four more in System B, and two in System C.
//
// The plans are no longer hand-written Go: they are declared once, as a
// workload spec (paper_workload.json, embedded below), and compiled
// through the same operator registry (compile.go) that serves
// user-supplied workload files. The plan sets below serve that compiled
// catalog (ByID picks one plan out of a set), pinned byte-identical to
// the original hand-built versions by the equivalence tests.
package plan

import (
	_ "embed"
	"fmt"
	"sync"

	"robustmap/internal/catalog"
	"robustmap/internal/exec"
	"robustmap/internal/spec"
)

// Conventional object names shared by all systems.
const (
	TableName = "lineitem"
	IdxA      = "idx_a"  // single-column non-clustered index on a
	IdxB      = "idx_b"  // single-column non-clustered index on b
	IdxAB     = "idx_ab" // two-column index on (a, b)
	IdxBA     = "idx_ba" // two-column index on (b, a)
)

// Query is a point in the paper's parameter space: thresholds for the
// range predicates a < TA and b < TB. TB < 0 means the query has no b
// predicate (the 1-D sweeps of Figures 1 and 2).
type Query struct {
	TA int64
	TB int64
}

// OnlyA reports whether the query restricts column a alone.
func (q Query) OnlyA() bool { return q.TB < 0 }

// String renders the query.
func (q Query) String() string {
	if q.OnlyA() {
		return fmt.Sprintf("a<%d", q.TA)
	}
	return fmt.Sprintf("a<%d AND b<%d", q.TA, q.TB)
}

// BuildFunc constructs a ready-to-drain iterator for a query against a
// catalog.
type BuildFunc func(*exec.Ctx, *catalog.Catalog, Query) exec.RowIter

// Plan is a fixed physical plan.
type Plan struct {
	// ID is the stable identifier used in experiment output, e.g. "A2".
	ID string
	// System is the engine configuration the plan belongs to: "A", "B",
	// or "C".
	System string
	// Description is the human-readable plan shape.
	Description string
	// Build constructs the iterator.
	Build BuildFunc
}

// --- The embedded paper workload ------------------------------------------

//go:embed paper_workload.json
var paperWorkloadJSON []byte

// PaperWorkload returns the paper's full study — catalog, the 13 study
// plans plus the Figure 1/2 extras grouped into systems A/B/C, and the
// standard 2-D sweep — as a workload spec. The returned spec is a fresh
// decode on every call, so callers may modify it freely (it is the
// natural starting point for custom workload files).
func PaperWorkload() *spec.WorkloadSpec {
	w, err := spec.Parse(paperWorkloadJSON)
	if err != nil {
		panic(fmt.Sprintf("plan: embedded paper workload is invalid: %v", err))
	}
	return w
}

// paperCompiled compiles the embedded workload once; every plan set
// below serves from it.
var paperCompiled = sync.OnceValue(func() *CompiledWorkload {
	cw, err := CompileWorkload(PaperWorkload())
	if err != nil {
		panic(fmt.Sprintf("plan: embedded paper workload does not compile: %v", err))
	}
	return cw
})

// ridsAsRows adapts a RID stream to a RowIter emitting one empty row per
// RID — the rids_as_rows operator. Figure 2's covering index joins end in
// it: the joined (a, b) columns are already paid for by the index scans,
// so the result is consumed only for counting and no fetch is needed.
type ridsAsRows struct {
	inner exec.RIDIter
	empty []exec.Row     // nil rows, as many as the largest pull so far
	rows  exec.SliceRows // the window of empty the current batch serves
}

// Open opens the inner iterator.
func (r *ridsAsRows) Open() { r.inner.Open() }

// NextBatch yields one row per RID. It does no I/O of its own, so it hands
// its consumer's bound down unchanged.
func (r *ridsAsRows) NextBatch(max int) (*exec.Batch, bool) {
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

// Close closes the inner iterator.
func (r *ridsAsRows) Close() { r.inner.Close() }

// --- Plan sets ------------------------------------------------------------

// plansByID fetches compiled paper plans in the given id order.
func plansByID(ids ...string) []Plan {
	out := make([]Plan, len(ids))
	for i, id := range ids {
		p, ok := paperCompiled().Plan(id)
		if !ok {
			panic(fmt.Sprintf("plan: embedded paper workload has no plan %q", id))
		}
		out[i] = p
	}
	return out
}

// SystemAPlans returns System A's seven two-predicate plans, the set whose
// best-of defines the relative maps of Figures 7 and 10.
func SystemAPlans() []Plan {
	return plansByID("A1", "A2", "A3", "A4", "A5", "A6", "A7")
}

// SystemBPlans returns System B's four additional plans. System B applies
// MVCC to base rows only, so no index is covering: every plan ends in a
// fetch (visibility forces it), done bitmap-driven (Figure 8). Its
// two-column indexes evaluate both predicates from index entries before
// fetching (B1, B2); B3 and B4 scan a single-column index.
func SystemBPlans() []Plan {
	return plansByID("B1", "B2", "B3", "B4")
}

// SystemCPlans returns System C's two MDAM plans, index-only over idx(a,b)
// and idx(b,a). With no b predicate C2's leading column is unrestricted
// and MDAM degrades to a full index sweep with an a filter — still a
// legal fixed plan.
func SystemCPlans() []Plan {
	return plansByID("C1", "C2")
}

// AllPlans returns all thirteen distinct plans of the study.
func AllPlans() []Plan {
	out := SystemAPlans()
	out = append(out, SystemBPlans()...)
	out = append(out, SystemCPlans()...)
	return out
}

// Figure1Plans returns the three plans of Figure 1 (single-predicate):
// the table scan, the traditional index scan (idx(a) range scan with
// row-at-a-time fetch in key order), and the improved index scan.
func Figure1Plans() []Plan {
	return plansByID("A1", "F1-trad", "A2")
}

// Figure2Plans returns Figure 2's advanced selection plans: Figure 1's
// three plus the four covering index joins — "multi-index plans that join
// non-clustered indexes such that the join result covers the query":
// idx(a)'s qualifying range joined against the full idx(b) on RID, by
// merge or hash, in either join order, without touching the table.
func Figure2Plans() []Plan {
	return append(Figure1Plans(),
		plansByID("F2-merge-ab", "F2-merge-ba", "F2-hash-ab", "F2-hash-ba")...)
}

// ByID returns the plan with the given id from a set; missing ids panic
// (experiment definitions use fixed ids).
func ByID(plans []Plan, id string) Plan {
	for _, p := range plans {
		if p.ID == id {
			return p
		}
	}
	panic(fmt.Sprintf("plan: no plan %q", id))
}
