package exec

import (
	"time"

	"robustmap/internal/catalog"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// IndexNestedLoopJoin probes a secondary index once per outer row and
// fetches the matching base rows — the classic plan for tiny outer inputs.
// Its robustness profile is the mirror image of the paper's traditional
// index scan: unbeatable when the outer side is a handful of rows, and
// linear-in-outer random I/O that grows without bound when a cardinality
// estimate was wrong. It exists here for exactly that robustness contrast
// (the paper's §3: "the strongest influences are data volume … and
// resources").
type IndexNestedLoopJoin struct {
	ctx      *Ctx
	outer    rowCursor
	ix       *catalog.Index
	outerKey int // ordinal of the join key in the outer row
	keyType  record.Type
	all      rowPreds // no predicate: every fetched row is decoded whole

	curOuter Row
	rids     []storage.RID
	pos      int
	fetched  *Batch // scratch the current inner row is decoded into
	out      Row
	rowOutput
}

// NewIndexNestedLoopJoin constructs the join: for each outer row, the
// index is probed for entries whose (single) key column equals the outer
// join key, and the base rows are fetched.
func NewIndexNestedLoopJoin(ctx *Ctx, outer RowIter, ix *catalog.Index, outerKey int) *IndexNestedLoopJoin {
	if len(ix.Columns) != 1 {
		panic("exec: IndexNestedLoopJoin requires a single-column index")
	}
	return &IndexNestedLoopJoin{
		ctx: ctx, outer: rowCursor{outer}, ix: ix, outerKey: outerKey,
		keyType: ix.Table.Schema.Column(ix.Ordinals[0]).Type,
		all:     newRowPreds(ix.Table, nil),
	}
}

// Open opens the outer input.
func (j *IndexNestedLoopJoin) Open() {
	j.outer.Open()
	j.fetched = getBatch()
}

// probe collects the RIDs matching the outer key.
func (j *IndexNestedLoopJoin) probe(key record.Value) {
	j.rids = j.rids[:0]
	j.pos = 0
	lo := record.NormalizeValue(nil, key)
	hi := record.KeySuccessor(lo)
	cur := j.ix.Tree.Seek(lo, hi)
	for cur.Next() {
		j.ctx.ChargeCPU(simclock.AccountCPU, CostIndexEntry, 1)
		j.rids = append(j.rids, catalog.DecodeRIDSuffix(cur.Key()))
	}
}

// NextBatch returns up to max joined rows: outer columns followed by the
// fetched inner row's columns. The outer input is taken a row at a time,
// each row's index probe and heap fetches running before the next pull.
func (j *IndexNestedLoopJoin) NextBatch(max int) (*Batch, bool) { return j.fill(j.next, max) }

func (j *IndexNestedLoopJoin) next() (Row, bool) {
	for {
		for j.pos < len(j.rids) {
			rid := j.rids[j.pos]
			j.pos++
			j.fetched.reset()
			var cpu time.Duration
			hit := fetchRow(j.ctx, j.ix.Table, rid, j.all, j.fetched, &cpu)
			j.ctx.chargeDur(simclock.AccountCPU, cpu)
			if !hit {
				continue
			}
			j.out = append(j.out[:0], j.curOuter...)
			// The scratch batch's arena is recycled by the next fetch.
			for _, v := range j.fetched.rows[0] {
				j.out = append(j.out, v.Clone())
			}
			j.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
			return j.out, true
		}
		row, ok := j.outer.next()
		if !ok {
			return nil, false
		}
		j.curOuter = cloneRow(row)
		j.probe(row[j.outerKey])
	}
}

// Close closes the outer input.
func (j *IndexNestedLoopJoin) Close() {
	j.outer.Close()
	putBatch(j.fetched)
	j.fetched = nil
	j.release()
}
