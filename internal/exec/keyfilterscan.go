package exec

import (
	"time"

	"robustmap/internal/btree"
	"robustmap/internal/catalog"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// IndexKeyFilterScan walks an index range and applies predicates to the
// decoded key columns, emitting the RIDs of matching entries. Unlike
// CoveringIndexScan it does not require the index to be covering: it is the
// System B access path, where a two-column index can evaluate both
// predicates from its entries but the matching rows must still be fetched
// from the base table because only base rows carry MVCC visibility
// (Figure 8).
type IndexKeyFilterScan struct {
	ctx   *Ctx
	ix    *catalog.Index
	lo    []byte
	hi    []byte
	types []record.Type
	preds []ColPred // ordinals refer to the index's column list
	cur   *btree.Cursor

	out     *ridBuf // the output window; held from Open to Close
	scratch Row
}

// NewIndexKeyFilterScan constructs the filtering index scan.
func NewIndexKeyFilterScan(ctx *Ctx, ix *catalog.Index, lo, hi []byte, preds []ColPred) *IndexKeyFilterScan {
	types := make([]record.Type, len(ix.Columns))
	for i, o := range ix.Ordinals {
		types[i] = ix.Table.Schema.Column(o).Type
	}
	return &IndexKeyFilterScan{ctx: ctx, ix: ix, lo: lo, hi: hi, types: types, preds: preds}
}

// Open seeks to the range start.
func (s *IndexKeyFilterScan) Open() {
	s.cur = s.ix.Tree.Seek(s.lo, s.hi)
	s.out = getRIDBuf()
}

// NextRIDBatch returns up to max matching RIDs, summing the per-entry and
// predicate CPU charges (with exact short-circuit counts) per batch and
// reusing one scratch row for key decoding.
func (s *IndexKeyFilterScan) NextRIDBatch(max int) ([]storage.RID, bool) {
	if max <= 0 || max > ridBatchCap {
		max = ridBatchCap
	}
	buf := s.out.rids[:0]
	var cpu time.Duration
	for len(buf) < max && s.cur.Next() {
		cpu += CostIndexEntry
		key := s.cur.Key()
		if len(s.preds) > 0 {
			vals, err := record.DenormalizeAppend(s.scratch[:0], key[:len(key)-catalog.RIDSuffixLen], s.types)
			if err != nil {
				panic("exec: corrupt index key: " + err.Error())
			}
			s.scratch = vals
			if !matchesAll(s.preds, vals, &cpu) {
				continue
			}
		}
		buf = append(buf, catalog.DecodeRIDSuffix(key))
	}
	s.out.rids = buf
	s.ctx.chargeDur(simclock.AccountCPU, cpu)
	if len(buf) == 0 {
		return nil, false
	}
	return buf, true
}

// Close releases the cursor and the output window.
func (s *IndexKeyFilterScan) Close() {
	s.cur = nil
	putRIDBuf(s.out)
	s.out = nil
}
