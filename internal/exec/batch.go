package exec

import (
	"sync"
	"time"

	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// Bounded batch pulls (the MonetDB/X100 vectorization idiom, with the
// vector length chosen by the consumer).
//
// Every operator has one pull method, NextBatch(max) (NextRIDBatch(max) for
// RID streams), and exchanges row batches of at most max rows instead of
// single rows, amortizing interface dispatch and clock charges across the
// batch. The virtual cost model does not see the batching: per-row CPU
// charges are summed per batch (addition is commutative, so the clock
// totals are bit-identical at any bound), and a producer asked for max rows
// performs exactly the buffer-pool and device operations — the stateful
// part of the cost model — that max one-row pulls would. Row-at-a-time
// execution is therefore not a second engine; it is the bound 1.
//
// The one rule that keeps measured times independent of the bound: an
// operator asks its input for no more rows than it can absorb before its
// own next I/O. Pass-through operators (Filter, Project) hand their
// consumer's bound down unchanged and Limit hands down the rows it still
// wants. Operators that drain an input completely before doing anything
// else (the hash aggregates, BitmapFetch, the RID intersections, the hash
// join and the inner side of the nested-loop join) pull BatchCapacity.
// Operators whose spill or lookup I/O interleaves with their input's
// (Sort, the merge join, the outer sides of the nested-loop and index
// nested-loop joins, StreamAggregate) pull at bound 1 through a rowCursor,
// and TraditionalFetch takes its RIDs one at a time, so the interleaving
// the device model prices is the row-at-a-time one.

// BatchCapacity is the largest bound any operator passes to NextBatch.
const BatchCapacity = 1024

// Batch is a vector of rows with an optional selection vector.
//
// Ownership rules:
//   - A batch returned by NextBatch belongs to the producer and is valid
//     only until the producer's next NextBatch (or Close) call.
//   - Values in a batch may alias the batch's arena (see
//     record.Schema.DecodeArena); retain them only via record.Value.Clone.
//   - A consumer may install its own selection vector on the batch it
//     received (that is how Filter narrows a batch without copying) but
//     must not grow or reorder the underlying rows.
type Batch struct {
	rows [][]record.Value
	n    int     // physical rows filled
	sel  []int32 // live physical row indices; nil means all n rows
	// arena backs variable-length values of rows decoded into this batch.
	arena []byte
}

// Len returns the number of live (selected) rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Row returns the i-th live row.
func (b *Batch) Row(i int) Row {
	if b.sel != nil {
		return b.rows[b.sel[i]]
	}
	return b.rows[i]
}

// reset empties the batch for refilling, keeping row and arena capacity.
func (b *Batch) reset() {
	b.n = 0
	b.sel = nil
	b.arena = b.arena[:0]
}

// rowBuf returns the next writable row storage, length 0 with whatever
// capacity previous fills left behind.
func (b *Batch) rowBuf() Row {
	if b.n == len(b.rows) {
		b.rows = append(b.rows, nil)
	}
	return b.rows[b.n][:0]
}

// store writes back a (possibly re-allocated) row buffer without emitting
// it; the next rowBuf call reuses the same slot. Used for rows that were
// decoded but rejected by a predicate.
func (b *Batch) store(r Row) { b.rows[b.n] = r }

// commit emits the row filled into rowBuf.
func (b *Batch) commit(r Row) {
	b.rows[b.n] = r
	b.n++
}

// rowCursor pulls an input one row per call — the bound-1 consumer. The
// row returned aliases the input's batch and is valid only until the next
// pull: a consumer that keeps it (or any value in it) longer must cloneRow
// it, because variable-length values may live in the batch's arena.
type rowCursor struct{ RowIter }

func (c rowCursor) next() (Row, bool) {
	b, ok := c.NextBatch(1)
	if !ok {
		return nil, false
	}
	return b.Row(0), true
}

// cloneRow copies a row pulled from an input so it can be retained past
// the next pull.
func cloneRow(r Row) Row {
	out := make(Row, len(r))
	for i, v := range r {
		out[i] = v.Clone()
	}
	return out
}

// rowOutput serves an operator's one-row next() as bounded batches. The
// values next hands out must stay valid across later next calls (the
// operators using it clone what they retain from their inputs); the Row
// slice itself may be reused.
type rowOutput struct {
	batch *Batch
	eof   bool // next reported exhaustion; it must not be called again
}

// fill returns the next up to max rows of next, copying value structs. A
// full batch returns without probing further.
func (o *rowOutput) fill(next func() (Row, bool), max int) (*Batch, bool) {
	if o.eof {
		return nil, false
	}
	if o.batch == nil {
		o.batch = getBatch()
	}
	b := o.batch
	b.reset()
	for b.n < max {
		row, ok := next()
		if !ok {
			o.eof = true
			break
		}
		b.commit(append(b.rowBuf(), row...))
	}
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

func (o *rowOutput) release() {
	putBatch(o.batch)
	o.batch = nil
}

// ridBatchCap bounds a single NextRIDBatch result.
const ridBatchCap = BatchCapacity

// batchPool recycles batch buffers across queries and sessions so
// steady-state execution allocates nothing per row (and, once warm, nothing
// per query either).
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.reset()
	return b
}

func putBatch(b *Batch) {
	if b != nil {
		batchPool.Put(b)
	}
}

// matchesAll evaluates a predicate conjunction with short-circuiting,
// accumulating the cost of the predicates actually evaluated into cpu
// instead of charging the clock per predicate.
func matchesAll(preds []ColPred, row Row, cpu *time.Duration) bool {
	for _, p := range preds {
		*cpu += CostPredicate
		if !p.Matches(row) {
			return false
		}
	}
	return true
}

// chargeDur flushes an accumulated duration to the clock as one advance.
func (c *Ctx) chargeDur(acct simclock.Account, d time.Duration) {
	if d > 0 {
		c.Clock.Advance(acct, d)
	}
}
