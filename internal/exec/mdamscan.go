package exec

import (
	"time"

	"robustmap/internal/btree"
	"robustmap/internal/catalog"
	"robustmap/internal/mdam"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// MDAMScan walks a two-column covering index with interval predicates on
// both columns — the paper's System C plan (Figure 9). The leading column's
// qualifying range is scanned; within it, entries whose second column falls
// outside its interval set are skipped, and when a long stretch of
// non-qualifying entries is detected the scan re-probes the tree past the
// current leading value instead of grinding through leaf entries
// ("multi-dimensional B-tree access", [LJBY95]).
//
// The scan-vs-probe switch is what makes the plan robust: its cost is
// bounded by the leading interval's entry count on one side and by the
// number of distinct leading values on the other, never by the table's
// row count times a random I/O.
type MDAMScan struct {
	ctx       *Ctx
	ix        *catalog.Index
	leadSet   mdam.Set
	secondSet mdam.Set
	types     []record.Type

	// ProbeThreshold is the number of consecutive non-qualifying entries
	// tolerated before re-probing. Exposed for the MDAM ablation bench.
	ProbeThreshold int

	// DisableProbes turns off all re-probing, degrading the operator to a
	// filtered covering scan — the non-MDAM baseline of the ablation.
	DisableProbes bool

	cur    *btree.Cursor
	target []byte // scratch for probe targets; Cursor.Seek does not retain it
	misses int
	batch  *Batch
	eof    bool // the scan ended on a partial batch; next NextBatch ends

	// Probes counts tree re-probes (for tests and EXPLAIN output).
	Probes int
}

// DefaultProbeThreshold balances scanning vs probing: about the number of
// entries whose decode cost equals one tree descent.
const DefaultProbeThreshold = 16

// NewMDAMScan constructs the scan over a two-column covering index.
func NewMDAMScan(ctx *Ctx, ix *catalog.Index, leadSet, secondSet mdam.Set) *MDAMScan {
	if len(ix.Columns) != 2 {
		panic("exec: MDAMScan requires a two-column index")
	}
	if !ix.Covering {
		panic("exec: MDAMScan over non-covering index " + ix.Name)
	}
	types := []record.Type{
		ix.Table.Schema.Column(ix.Ordinals[0]).Type,
		ix.Table.Schema.Column(ix.Ordinals[1]).Type,
	}
	return &MDAMScan{ctx: ctx, ix: ix, leadSet: leadSet, secondSet: secondSet,
		types: types, ProbeThreshold: DefaultProbeThreshold}
}

// Open positions the scan at the start of the leading interval set.
func (s *MDAMScan) Open() {
	s.eof = false
	if s.leadSet.Empty() || s.secondSet.Empty() {
		s.cur = nil
		return
	}
	var lo, hi []byte
	if v, ok := s.leadSet.MinLo(); ok {
		lo = record.NormalizeValue(nil, v)
	}
	if v, ok := s.leadSet.MaxHi(); ok {
		hi = record.NormalizeValue(nil, v)
	}
	s.cur = s.ix.Tree.Seek(lo, hi)
}

// NextBatch returns the next batch of up to max qualifying (lead, second)
// rows, stopping at the entry that fills it: no leaf entry is read and no
// probe made for a row beyond the bound.
func (s *MDAMScan) NextBatch(max int) (*Batch, bool) {
	if s.cur == nil || s.eof {
		return nil, false
	}
	if s.batch == nil {
		s.batch = getBatch()
	}
	b := s.batch
	b.reset()
	var cpu time.Duration
	for b.n < max && !s.eof {
		s.eof = !s.step(b, &cpu)
	}
	s.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// step consumes one index entry — committing it to the batch, skipping it,
// or re-probing past it — and reports false once the scan is over.
func (s *MDAMScan) step(b *Batch, cpu *time.Duration) bool {
	if !s.cur.Next() {
		return false
	}
	*cpu += CostIndexEntry
	key := s.cur.Key()
	vals, err := record.DenormalizeAppend(b.rowBuf(), key[:len(key)-catalog.RIDSuffixLen], s.types)
	if err != nil {
		panic("exec: corrupt MDAM index key: " + err.Error())
	}
	b.store(vals)
	lead, second := vals[0], vals[1]

	if !s.leadSet.Contains(lead) {
		if s.DisableProbes {
			return true
		}
		// Inside the overall [minLo, maxHi) range but in a gap between
		// leading intervals: probe to the next interval's start.
		if iv, ok := s.leadSet.NextFrom(lead); ok && !iv.Lo.IsNull() {
			s.probeTo(record.NormalizeValue(s.target[:0], iv.Lo))
			return true
		}
		return false
	}

	if s.secondSet.Contains(second) {
		s.misses = 0
		*cpu += CostEmit
		b.commit(vals)
		return true
	}
	if s.DisableProbes {
		return true
	}

	// Non-qualifying second column. If the second value is already at
	// or past its set's upper bound, nothing further under this leading
	// value can qualify: skip to the next leading value immediately.
	if hi, bounded := s.secondSet.MaxHi(); bounded && record.Compare(second, hi) >= 0 {
		// record.KeySuccessor of the leading value, built in place.
		s.probeTo(append(record.NormalizeValue(s.target[:0], lead), 0xFF))
		return true
	}
	// Otherwise the qualifying region may lie ahead within this
	// leading value; scan adaptively, probing directly to the next
	// second-column interval after a stretch of misses.
	s.misses++
	if s.misses >= s.ProbeThreshold {
		if iv, ok := s.secondSet.NextFrom(second); ok && !iv.Lo.IsNull() {
			target := record.NormalizeValue(s.target[:0], lead)
			s.probeTo(record.NormalizeValue(target, iv.Lo))
		}
	}
	return true
}

// probeTo re-seeks the cursor to the given key, which keeps the overall
// upper bound it was opened with, and counts the probe. key is built in
// s.target and becomes the scratch for the next probe.
func (s *MDAMScan) probeTo(key []byte) {
	s.cur.Seek(key)
	s.target = key
	s.misses = 0
	s.Probes++
}

// Close releases the cursor.
func (s *MDAMScan) Close() {
	s.cur = nil
	putBatch(s.batch)
	s.batch = nil
}
