package exec

import (
	"fmt"

	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// SpillingHashAggregate is HashAggregate with graceful memory degradation:
// when the group state exceeds the memory budget, the input is partitioned
// by group-key hash into spill files and each partition is aggregated
// independently (partitions are disjoint in group keys, so results simply
// concatenate). This is the aggregation analogue of the grace hash join —
// the §4 aggregation-robustness experiment maps it against the unbounded
// in-memory variant.
type SpillingHashAggregate struct {
	ctx     *Ctx
	input   RowIter
	schema  *record.Schema
	groupBy []int
	aggs    []AggSpec

	results []Row
	pos     int
	built   bool
	rowOutput
	// Spilled reports whether any partitioning happened (for tests).
	Spilled bool
}

// spillAggFanOut is the partition fan-out per level.
const spillAggFanOut = 8

// groupStateBytes approximates the memory footprint of one group's state.
func groupStateBytes(groupBy []int, aggs []AggSpec) int64 {
	return int64(32 + 16*len(groupBy) + 40*len(aggs))
}

// NewSpillingHashAggregate constructs the memory-adaptive aggregate.
// schema describes the input rows (needed to spill them).
func NewSpillingHashAggregate(ctx *Ctx, input RowIter, schema *record.Schema,
	groupBy []int, aggs []AggSpec) *SpillingHashAggregate {
	return &SpillingHashAggregate{ctx: ctx, input: input, schema: schema,
		groupBy: groupBy, aggs: aggs}
}

// Open opens the input.
func (a *SpillingHashAggregate) Open() { a.input.Open() }

func (a *SpillingHashAggregate) build() {
	rows := gatherRows(a.input)
	a.aggregate(rows, 0)
	a.built = true
}

// aggregate processes one partition, recursing with spill partitioning
// when the distinct-group state would exceed the budget.
func (a *SpillingHashAggregate) aggregate(rows []Row, level int) {
	maxGroups := a.ctx.Budget() / groupStateBytes(a.groupBy, a.aggs)
	if maxGroups < 1 {
		maxGroups = 1
	}

	groups := make(map[string]*aggState)
	var order []string
	overflowAt := -1
	for i, row := range rows {
		a.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		key := keyString(row, a.groupBy)
		st := groups[key]
		if st == nil {
			if int64(len(groups)) >= maxGroups && level < 4 {
				overflowAt = i
				break
			}
			st = newAggState(row, a.groupBy, a.aggs)
			groups[key] = st
			order = append(order, key)
		}
		accumulateInto(st, row, a.aggs)
	}

	if overflowAt < 0 {
		sortStrings(order)
		for _, key := range order {
			a.results = append(a.results, renderAggRow(nil, groups[key], a.aggs))
		}
		return
	}

	// Overflow: spill ALL rows (including the prefix — their groups may
	// receive more input later) into disjoint partitions by key hash and
	// recurse. The round trip is charged through the run writers/readers.
	a.Spilled = true
	writers := make([]*runWriter, spillAggFanOut)
	for i := range writers {
		writers[i] = newRunWriter(a.ctx, a.schema)
	}
	for _, row := range rows {
		a.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		p := fnv64([]byte(keyString(row, a.groupBy))) ^ uint64(level)*0x9E3779B97F4A7C15
		writers[p%spillAggFanOut].write(row)
	}
	for _, w := range writers {
		run := w.finish()
		r := newRunReader(a.ctx, run)
		var part []Row
		for {
			row, ok := r.next()
			if !ok {
				break
			}
			part = append(part, copyRowVals(row))
		}
		run.drop(a.ctx)
		a.aggregate(part, level+1)
	}
}

// newAggState starts a group at row. Group keys and MIN/MAX state outlive
// the row they were read from, which may alias its batch's arena, so they
// are cloned.
func newAggState(row Row, groupBy []int, aggs []AggSpec) *aggState {
	st := &aggState{
		counts: make([]int64, len(aggs)),
		sums:   make([]float64, len(aggs)),
		mins:   make([]record.Value, len(aggs)),
		maxs:   make([]record.Value, len(aggs)),
	}
	for _, g := range groupBy {
		st.groupVals = append(st.groupVals, row[g].Clone())
	}
	return st
}

func accumulateInto(st *aggState, row Row, aggs []AggSpec) {
	for i, spec := range aggs {
		st.counts[i]++
		switch spec.Kind {
		case AggSum:
			st.sums[i] += row[spec.Col].AsFloat()
		case AggMin:
			if st.mins[i].IsNull() || record.Compare(row[spec.Col], st.mins[i]) < 0 {
				st.mins[i] = row[spec.Col].Clone()
			}
		case AggMax:
			if st.maxs[i].IsNull() || record.Compare(row[spec.Col], st.maxs[i]) > 0 {
				st.maxs[i] = row[spec.Col].Clone()
			}
		}
	}
}

// renderAggRow appends a group's output row to dst: the group-by values
// followed by the aggregate values.
func renderAggRow(dst Row, st *aggState, aggs []AggSpec) Row {
	dst = append(dst, st.groupVals...)
	for i, spec := range aggs {
		switch spec.Kind {
		case AggCount:
			dst = append(dst, record.Int(st.counts[i]))
		case AggSum:
			dst = append(dst, record.Float(st.sums[i]))
		case AggMin:
			dst = append(dst, st.mins[i])
		case AggMax:
			dst = append(dst, st.maxs[i])
		default:
			panic(fmt.Sprintf("exec: unknown aggregate %d", spec.Kind))
		}
	}
	return dst
}

// NextBatch returns up to max group rows. Output order is deterministic
// within each partition (normalized key order) but partitions concatenate
// in hash order when spilling occurred.
func (a *SpillingHashAggregate) NextBatch(max int) (*Batch, bool) { return a.fill(a.next, max) }

func (a *SpillingHashAggregate) next() (Row, bool) {
	if !a.built {
		a.build()
	}
	if a.pos >= len(a.results) {
		return nil, false
	}
	r := a.results[a.pos]
	a.pos++
	a.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
	return r, true
}

// Close closes the input.
func (a *SpillingHashAggregate) Close() {
	a.input.Close()
	a.release()
}
