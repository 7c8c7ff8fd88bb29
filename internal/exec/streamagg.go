package exec

import (
	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// StreamAggregate groups rows that arrive sorted on the group-by columns,
// holding exactly one group's state at a time. Its memory footprint is
// constant regardless of group count — the gracefully degrading
// alternative to HashAggregate, whose state grows with the number of
// groups. The aggregation-robustness experiment maps the two against each
// other (the paper's §4 names aggregation among the algorithms to map
// next).
type StreamAggregate struct {
	ctx     *Ctx
	input   rowCursor
	groupBy []int
	aggs    []AggSpec

	cur       *aggState
	exhausted bool
	out       Row
	rowOutput
}

// NewStreamAggregate constructs the streaming aggregate; the input must be
// sorted on the group-by columns (wrap it in Sort if it is not).
func NewStreamAggregate(ctx *Ctx, input RowIter, groupBy []int, aggs []AggSpec) *StreamAggregate {
	return &StreamAggregate{ctx: ctx, input: rowCursor{input}, groupBy: groupBy, aggs: aggs}
}

// Open opens the input.
func (a *StreamAggregate) Open() { a.input.Open() }

func (a *StreamAggregate) sameGroup(row Row) bool {
	for _, g := range a.groupBy {
		a.ctx.ChargeCPU(simclock.AccountCompare, CostSortCompare, 1)
		if record.Compare(a.cur.groupVals[indexOf(a.groupBy, g)], row[g]) != 0 {
			return false
		}
	}
	return true
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func (a *StreamAggregate) startGroup(row Row) {
	a.cur = newAggState(row, a.groupBy, a.aggs)
	accumulateInto(a.cur, row, a.aggs)
}

// emit renders the current group's output row.
func (a *StreamAggregate) emit() Row {
	a.out = renderAggRow(a.out[:0], a.cur, a.aggs)
	a.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
	return a.out
}

// next returns the next completed group. The input is consumed a row at a
// time: its canonical producer is a Sort, whose merge reads interleave with
// this operator's pulls, and per-group comparison charges follow the exact
// short-circuit counts.
func (a *StreamAggregate) next() (Row, bool) {
	if a.exhausted {
		return nil, false
	}
	// Seed the first group.
	if a.cur == nil {
		row, ok := a.input.next()
		if !ok {
			a.exhausted = true
			return nil, false
		}
		a.startGroup(row)
	}
	for {
		row, ok := a.input.next()
		if !ok {
			a.exhausted = true
			return a.emit(), true
		}
		if a.sameGroup(row) {
			accumulateInto(a.cur, row, a.aggs)
			continue
		}
		// Group boundary: emit the finished group and start the next one
		// from the row that ended it.
		out := a.emit()
		a.startGroup(row)
		return out, true
	}
}

// NextBatch returns up to max completed groups.
func (a *StreamAggregate) NextBatch(max int) (*Batch, bool) { return a.fill(a.next, max) }

// Close closes the input.
func (a *StreamAggregate) Close() {
	a.input.Close()
	a.release()
}
