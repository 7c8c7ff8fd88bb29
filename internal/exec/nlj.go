package exec

import (
	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// NestedLoopJoin is the textbook quadratic equality join: for every outer
// row, the materialized inner input is scanned in full. It needs no sort,
// no hash table, and almost no memory — and its cost grows as the product
// of the input sizes, the least robust shape a join can have. The join
// robustness experiment maps it against the hash and sort-merge joins:
// unbeatable at tiny inputs, catastrophic at large ones, exactly the kind
// of crossover structure the paper's maps exist to expose.
type NestedLoopJoin struct {
	ctx       *Ctx
	outer     rowCursor
	inner     RowIter
	outerKeys []int
	innerKeys []int

	innerRows []Row
	built     bool
	curOuter  Row
	haveOuter bool
	pos       int
	out       Row
	rowOutput
}

// NewNestedLoopJoin constructs the join; inner is materialized on first
// use (charged per-row), outer streams.
func NewNestedLoopJoin(ctx *Ctx, outer, inner RowIter, outerKeys, innerKeys []int) *NestedLoopJoin {
	if len(outerKeys) != len(innerKeys) {
		panic("exec: nested loop join key arity mismatch")
	}
	return &NestedLoopJoin{ctx: ctx, outer: rowCursor{outer}, inner: inner,
		outerKeys: outerKeys, innerKeys: innerKeys}
}

// Open opens both inputs.
func (j *NestedLoopJoin) Open() {
	j.outer.Open()
	j.inner.Open()
}

func (j *NestedLoopJoin) build() {
	j.innerRows = gatherRows(j.inner)
	j.built = true
}

func (j *NestedLoopJoin) match(o, i Row) bool {
	for k := range j.outerKeys {
		j.ctx.ChargeCPU(simclock.AccountCompare, CostSortCompare, 1)
		if record.Compare(o[j.outerKeys[k]], i[j.innerKeys[k]]) != 0 {
			return false
		}
	}
	return true
}

// NextBatch returns up to max joined rows (outer columns then inner
// columns).
func (j *NestedLoopJoin) NextBatch(max int) (*Batch, bool) { return j.fill(j.next, max) }

func (j *NestedLoopJoin) next() (Row, bool) {
	if !j.built {
		j.build()
	}
	for {
		if !j.haveOuter {
			row, ok := j.outer.next()
			if !ok {
				return nil, false
			}
			j.curOuter = cloneRow(row)
			j.haveOuter = true
			j.pos = 0
		}
		for j.pos < len(j.innerRows) {
			inner := j.innerRows[j.pos]
			j.pos++
			if j.match(j.curOuter, inner) {
				j.out = j.out[:0]
				j.out = append(j.out, j.curOuter...)
				j.out = append(j.out, inner...)
				j.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
				return j.out, true
			}
		}
		j.haveOuter = false
	}
}

// Close closes both inputs.
func (j *NestedLoopJoin) Close() {
	j.outer.Close()
	j.inner.Close()
	j.release()
}
