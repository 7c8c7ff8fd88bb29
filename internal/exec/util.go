package exec

import (
	"time"

	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// Filter applies a predicate conjunction to its input.
type Filter struct {
	ctx    *Ctx
	input  RowIter
	preds  []ColPred
	selBuf []int32 // selection storage installed on input batches
}

// NewFilter constructs a filter.
func NewFilter(ctx *Ctx, input RowIter, preds []ColPred) *Filter {
	return &Filter{ctx: ctx, input: input, preds: preds}
}

// Open opens the input.
func (f *Filter) Open() { f.input.Open() }

// NextBatch returns the next non-empty batch of matching rows. The filter
// does no I/O of its own, so it hands its consumer's bound down unchanged
// and installs a selection vector on the input's batch (no row copies);
// batches whose rows are all eliminated are skipped, so consumers never see
// an empty batch. Predicate charges use the exact short-circuit counts.
func (f *Filter) NextBatch(max int) (*Batch, bool) {
	for {
		b, ok := f.input.NextBatch(max)
		if !ok {
			return nil, false
		}
		var cpu time.Duration
		sel := f.selBuf[:0]
		if b.sel == nil {
			for i := 0; i < b.n; i++ {
				if matchesAll(f.preds, b.rows[i], &cpu) {
					sel = append(sel, int32(i))
				}
			}
		} else {
			for _, i := range b.sel {
				if matchesAll(f.preds, b.rows[i], &cpu) {
					sel = append(sel, i)
				}
			}
		}
		f.selBuf = sel
		f.ctx.chargeDur(simclock.AccountCPU, cpu)
		if len(sel) == 0 {
			continue
		}
		b.sel = sel
		return b, true
	}
}

// Close closes the input.
func (f *Filter) Close() { f.input.Close() }

// Project narrows rows to the given column ordinals.
type Project struct {
	ctx   *Ctx
	input RowIter
	cols  []int
	batch *Batch
}

// NewProject constructs a projection.
func NewProject(ctx *Ctx, input RowIter, cols []int) *Project {
	return &Project{ctx: ctx, input: input, cols: cols}
}

// Open opens the input.
func (p *Project) Open() { p.input.Open() }

// NextBatch returns the next batch of projected rows, one per input row at
// the consumer's bound. Projected values are struct copies that may alias
// the input batch's arena; the input batch stays valid until this
// operator's next NextBatch call, so the lifetimes coincide.
func (p *Project) NextBatch(max int) (*Batch, bool) {
	in, ok := p.input.NextBatch(max)
	if !ok {
		return nil, false
	}
	if p.batch == nil {
		p.batch = getBatch()
	}
	out := p.batch
	out.reset()
	n := in.Len()
	for i := 0; i < n; i++ {
		row := in.Row(i)
		r := out.rowBuf()
		for _, c := range p.cols {
			r = append(r, row[c])
		}
		out.commit(r)
	}
	p.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, int64(n))
	return out, true
}

// Close closes the input.
func (p *Project) Close() {
	p.input.Close()
	putBatch(p.batch)
	p.batch = nil
}

// Limit stops after n rows.
type Limit struct {
	input RowIter
	n     int64
	seen  int64
}

// NewLimit constructs a limit.
func NewLimit(input RowIter, n int64) *Limit { return &Limit{input: input, n: n} }

// Open opens the input.
func (l *Limit) Open() {
	l.seen = 0
	l.input.Open()
}

// NextBatch returns the next batch while under the limit. It never asks
// its input for more rows than it still wants, so the subtree below does
// exactly the work the limited result needs and no batch has to be cut.
func (l *Limit) NextBatch(max int) (*Batch, bool) {
	if want := l.n - l.seen; want < int64(max) {
		max = int(want)
	}
	if max <= 0 {
		return nil, false
	}
	b, ok := l.input.NextBatch(max)
	if !ok {
		return nil, false
	}
	l.seen += int64(b.Len())
	return b, true
}

// Close closes the input.
func (l *Limit) Close() { l.input.Close() }

// SliceRows adapts an in-memory row slice to a RowIter (tests, examples).
type SliceRows struct {
	Rows  []Row
	pos   int
	batch Batch // a window onto Rows; nothing is copied
}

// Open rewinds.
func (s *SliceRows) Open() { s.pos = 0 }

// NextBatch returns the next up to max rows.
func (s *SliceRows) NextBatch(max int) (*Batch, bool) {
	if s.pos >= len(s.Rows) {
		return nil, false
	}
	end := s.pos + max
	if end > len(s.Rows) {
		end = len(s.Rows)
	}
	s.batch = Batch{rows: s.Rows[s.pos:end], n: end - s.pos}
	s.pos = end
	return &s.batch, true
}

// Close is a no-op.
func (s *SliceRows) Close() {}

// AggKind enumerates the supported aggregates.
type AggKind int

// Supported aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

// AggSpec is one aggregate over an input column (ignored for AggCount).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// HashAggregate groups by the given columns and computes aggregates.
// Output rows are the group-by columns followed by the aggregate values,
// in deterministic (normalized group key) order.
type HashAggregate struct {
	ctx     *Ctx
	input   RowIter
	groupBy []int
	aggs    []AggSpec

	groups map[string]*aggState
	order  []string
	pos    int
	built  bool
	out    Row
	rowOutput
}

type aggState struct {
	groupVals Row
	counts    []int64
	sums      []float64
	mins      []record.Value
	maxs      []record.Value
}

// NewHashAggregate constructs a grouping aggregate. Group state is assumed
// to fit in memory (the experiment queries group on low-cardinality keys).
func NewHashAggregate(ctx *Ctx, input RowIter, groupBy []int, aggs []AggSpec) *HashAggregate {
	return &HashAggregate{ctx: ctx, input: input, groupBy: groupBy, aggs: aggs}
}

// Open opens the input.
func (a *HashAggregate) Open() { a.input.Open() }

// build drains the input. It is consumed completely before the first group
// is emitted, so it is pulled in full batches and hash charges are summed
// per batch.
func (a *HashAggregate) build() {
	a.groups = make(map[string]*aggState)
	for {
		b, ok := a.input.NextBatch(BatchCapacity)
		if !ok {
			break
		}
		n := b.Len()
		for r := 0; r < n; r++ {
			row := b.Row(r)
			key := keyString(row, a.groupBy)
			st := a.groups[key]
			if st == nil {
				st = newAggState(row, a.groupBy, a.aggs)
				a.groups[key] = st
				a.order = append(a.order, key)
			}
			accumulateInto(st, row, a.aggs)
		}
		a.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, int64(n))
	}
	// Deterministic output order: sort keys lexicographically (normalized
	// keys order like the values themselves).
	sortStrings(a.order)
	a.built = true
}

// NextBatch returns up to max group rows.
func (a *HashAggregate) NextBatch(max int) (*Batch, bool) { return a.fill(a.next, max) }

// next returns the next group row.
func (a *HashAggregate) next() (Row, bool) {
	if !a.built {
		a.build()
	}
	if a.pos >= len(a.order) {
		return nil, false
	}
	a.out = renderAggRow(a.out[:0], a.groups[a.order[a.pos]], a.aggs)
	a.pos++
	a.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
	return a.out, true
}

// Close closes the input.
func (a *HashAggregate) Close() {
	a.input.Close()
	a.release()
}

func sortStrings(s []string) {
	// Insertion sort is fine: group counts in experiments are small.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
