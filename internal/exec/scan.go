package exec

import (
	"time"

	"robustmap/internal/btree"
	"robustmap/internal/catalog"
	"robustmap/internal/mvcc"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// TableScan reads every row of a table in physical order with prefetching
// and applies a conjunction of predicates. Its cost is flat across
// selectivities — the horizontal line of Figure 1.
type TableScan struct {
	ctx   *Ctx
	table *catalog.Table
	preds rowPreds

	pages      storage.PageNo
	pg         storage.PageNo
	prefetched storage.PageNo // pages below this are already paid for
	slot       int
	sp         storage.SlottedPage
	havePage   bool // sp is valid and pg is pinned
	open       bool

	batch *Batch // output buffer
	eof   bool   // a partial final batch was emitted; next NextBatch ends
}

// NewTableScan constructs a table scan. Predicate ordinals refer to the
// table schema.
func NewTableScan(ctx *Ctx, t *catalog.Table, preds []ColPred) *TableScan {
	return &TableScan{ctx: ctx, table: t, preds: newRowPreds(t, preds)}
}

// Open positions the scan before the first page.
func (s *TableScan) Open() {
	s.pages = s.table.Heap.NumPages()
	s.pg = -1
	s.prefetched = 0
	s.slot = -1
	s.havePage = false
	s.open = true
	s.eof = false
}

// NextBatch returns the next batch of up to max matching rows, stopping at
// the slot that fills it. The page-access sequence (prefetch declarations,
// Get/Unpin pairs, pin lifetimes across calls) is therefore the same at
// any bound; only the CPU charges are summed per batch.
func (s *TableScan) NextBatch(max int) (*Batch, bool) {
	if !s.open {
		panic("exec: NextBatch on unopened TableScan")
	}
	if s.eof {
		s.open = false
		return nil, false
	}
	if s.batch == nil {
		s.batch = getBatch()
	}
	b := s.batch
	b.reset()
	var cpu time.Duration
	for b.n < max {
		if s.havePage && s.slot+1 < s.sp.NumSlots() {
			s.slot++
			rec, ok := s.sp.Get(storage.Slot(s.slot))
			if !ok {
				continue
			}
			decodeRow(s.ctx, s.table, rec, s.preds, b, &cpu)
			continue
		}
		// Advance to the next page, prefetching in device units.
		if s.havePage {
			s.ctx.Pool.Unpin(s.table.Heap.File(), s.pg)
			s.havePage = false
		}
		s.pg++
		if s.pg >= s.pages {
			s.eof = true
			break
		}
		if s.pg >= s.prefetched {
			k := storage.PageNo(s.ctx.Pool.PrefetchUnit())
			if rem := s.pages - s.pg; rem < k {
				k = rem
			}
			s.ctx.Pool.Prefetch(s.table.Heap.File(), s.pg, int(k))
			s.prefetched = s.pg + k
		}
		data := s.ctx.Pool.Get(s.table.Heap.File(), s.pg)
		s.sp = storage.AsSlotted(data)
		s.havePage = true
		s.slot = -1
	}
	s.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		s.open = false
		return nil, false
	}
	return b, true
}

// decodeRow decodes one stored record of t into the batch, committing it
// if it qualifies: visibility check, then the columns the predicates read
// (preds.prefix), then the predicates, and only for a row that passes them
// the rest of the row. A rejected row's tail is not materialized — no Value
// written, no string copied into the arena — but it is still walked once by
// record.ValidateCols, so a corrupt record panics here whether or not its
// row qualifies. The charges are those of a full decode (CostRowDecode per
// visible row, CostPredicate per predicate evaluated) and accumulate into
// cpu. Shared by the table scan and every fetch strategy.
func decodeRow(ctx *Ctx, t *catalog.Table, rec []byte, preds rowPreds, b *Batch, cpu *time.Duration) bool {
	payload := rec
	if t.Versioned != nil {
		h, p := mvcc.DecodeHeader(rec)
		if !ctx.Snap.Visible(h) {
			return false
		}
		payload = p
	}
	*cpu += CostRowDecode
	mark := len(b.arena)
	row, arena, off, err := t.Schema.DecodeArenaCols(payload, 0, preds.prefix, 0, b.rowBuf(), b.arena)
	if err == nil {
		if matchesAll(preds.conj, row, cpu) {
			row, arena, _, err = t.Schema.DecodeArenaCols(payload, preds.prefix, t.Schema.NumColumns(), off, row, arena)
			if err == nil {
				*cpu += CostEmit
				b.arena = arena
				b.commit(row)
				return true
			}
		} else if _, err = t.Schema.ValidateCols(payload, preds.prefix, off); err == nil {
			b.arena = arena[:mark]
			b.store(row)
			return false
		}
	}
	panic("exec: corrupt row in table " + t.Name + ": " + err.Error())
}

// rowPreds is a predicate conjunction on the stored rows of a table with
// the number of leading columns it reads — what decodeRow decodes before
// it evaluates anything.
type rowPreds struct {
	conj   []ColPred
	prefix int
}

// newRowPreds measures the prefix: up to the last column a predicate reads,
// or the whole row when there is no predicate to reject it.
func newRowPreds(t *catalog.Table, conj []ColPred) rowPreds {
	if len(conj) == 0 {
		return rowPreds{prefix: t.Schema.NumColumns()}
	}
	p := rowPreds{conj: conj}
	for _, c := range conj {
		p.prefix = max(p.prefix, c.Col+1)
	}
	return p
}

// Close releases the current page pin.
func (s *TableScan) Close() {
	if s.open && s.havePage {
		s.ctx.Pool.Unpin(s.table.Heap.File(), s.pg)
		s.havePage = false
	}
	s.open = false
	putBatch(s.batch)
	s.batch = nil
}

// IndexRangeScan walks an index over the key range [lo, hi) and emits RIDs
// in key order — physically scattered order, which is exactly what makes
// the traditional fetch expensive.
type IndexRangeScan struct {
	ctx *Ctx
	ix  *catalog.Index
	lo  []byte
	hi  []byte
	cur *btree.Cursor
	out *ridBuf // the output window; held from Open to Close
}

// NewIndexRangeScan constructs a range scan. lo and hi are normalized key
// prefixes (see catalog.Index.PrefixFor); nil means unbounded.
func NewIndexRangeScan(ctx *Ctx, ix *catalog.Index, lo, hi []byte) *IndexRangeScan {
	return &IndexRangeScan{ctx: ctx, ix: ix, lo: lo, hi: hi}
}

// Open seeks to the start of the range.
func (s *IndexRangeScan) Open() {
	s.cur = s.ix.Tree.Seek(s.lo, s.hi)
	s.out = getRIDBuf()
}

// NextRIDBatch returns up to max RIDs in key order, charging the per-entry
// CPU cost once per batch. The cursor reads no leaf page beyond the last
// entry returned, so its I/O stops exactly where the consumer's bound does.
func (s *IndexRangeScan) NextRIDBatch(max int) ([]storage.RID, bool) {
	if max <= 0 || max > ridBatchCap {
		max = ridBatchCap
	}
	buf := s.out.rids[:0]
	for len(buf) < max && s.cur.Next() {
		buf = append(buf, catalog.DecodeRIDSuffix(s.cur.Key()))
	}
	s.out.rids = buf
	if len(buf) == 0 {
		return nil, false
	}
	s.ctx.ChargeCPU(simclock.AccountCPU, CostIndexEntry, int64(len(buf)))
	return buf, true
}

// Close releases the output window (cursors hold no pins between calls).
func (s *IndexRangeScan) Close() {
	s.cur = nil
	putRIDBuf(s.out)
	s.out = nil
}

// CoveringIndexScan answers a query from index entries alone, decoding the
// key columns and applying residual predicates to them. Only valid on
// covering indexes: on versioned tables row visibility lives in the base
// row, so constructing this over a non-covering index panics — that is
// precisely the System B limitation of Figure 8.
type CoveringIndexScan struct {
	ctx   *Ctx
	ix    *catalog.Index
	lo    []byte
	hi    []byte
	types []record.Type
	preds []ColPred // ordinals refer to the index's column list
	cur   *btree.Cursor
	batch *Batch
	eof   bool
}

// NewCoveringIndexScan constructs an index-only scan.
func NewCoveringIndexScan(ctx *Ctx, ix *catalog.Index, lo, hi []byte, preds []ColPred) *CoveringIndexScan {
	if !ix.Covering {
		panic("exec: covering scan over non-covering index " + ix.Name)
	}
	types := make([]record.Type, len(ix.Columns))
	for i, o := range ix.Ordinals {
		types[i] = ix.Table.Schema.Column(o).Type
	}
	return &CoveringIndexScan{ctx: ctx, ix: ix, lo: lo, hi: hi, types: types, preds: preds}
}

// Open seeks to the start of the range.
func (s *CoveringIndexScan) Open() {
	s.cur = s.ix.Tree.Seek(s.lo, s.hi)
	s.eof = false
}

// NextBatch returns the next batch of up to max matching index rows (the
// key columns, in index column order), denormalizing them directly into
// the batch and summing CPU charges per batch.
func (s *CoveringIndexScan) NextBatch(max int) (*Batch, bool) {
	if s.eof {
		return nil, false
	}
	if s.batch == nil {
		s.batch = getBatch()
	}
	b := s.batch
	b.reset()
	var cpu time.Duration
	for b.n < max {
		if !s.cur.Next() {
			s.eof = true
			break
		}
		cpu += CostIndexEntry
		key := s.cur.Key()
		row, err := record.DenormalizeAppend(b.rowBuf(), key[:len(key)-catalog.RIDSuffixLen], s.types)
		if err != nil {
			panic("exec: corrupt index key: " + err.Error())
		}
		if !matchesAll(s.preds, row, &cpu) {
			b.store(row)
			continue
		}
		cpu += CostEmit
		b.commit(row)
	}
	s.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// Close is a no-op.
func (s *CoveringIndexScan) Close() {
	s.cur = nil
	putBatch(s.batch)
	s.batch = nil
}
