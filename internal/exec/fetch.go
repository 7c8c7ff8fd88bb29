package exec

import (
	"math/bits"
	"time"

	"robustmap/internal/bitmap"
	"robustmap/internal/catalog"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// fetchRow resolves one RID to a decoded, visibility-checked row in the
// batch, applying residual predicates (see decodeRow). Shared by all fetch
// strategies.
func fetchRow(ctx *Ctx, t *catalog.Table, rid storage.RID, preds []ColPred, b *Batch, cpu *time.Duration) bool {
	rec, ok := t.Heap.Fetch(rid)
	if !ok {
		return false
	}
	return decodeRow(ctx, t, rec, preds, b, cpu)
}

// stepTo positions the device at the next page of an ascending fetch,
// streaming through short gaps rather than seeking: reading a few unneeded
// pages is cheaper than a seek whenever the gap is shorter than
// seek/transfer pages, the break-even length. With streaming disabled
// every page change pays its seek.
func stepTo(ctx *Ctx, t *catalog.Table, lastPage *storage.PageNo, page storage.PageNo, disableStreaming bool) {
	last := *lastPage
	if page == last {
		return // same page as previous row: already resident
	}
	*lastPage = page
	if disableStreaming || last < 0 || page < last {
		return
	}
	gapLimit := storage.PageNo(1)
	if p := ctx.Pool.Device().Params(); p.PageTransfer > 0 {
		gapLimit = storage.PageNo(p.SeekLatency / p.PageTransfer)
	}
	if page-last <= gapLimit {
		// Prefetch the run up to and including the target page. Unneeded
		// pages cost transfer time only.
		ctx.Pool.Prefetch(t.Heap.File(), last+1, int(page-last))
	}
}

// TraditionalFetch resolves RIDs in their arrival order — the index's key
// order, which is physically scattered. Every fetch is a random page
// access; the cost grows linearly with the number of fetched rows. This is
// the plan whose "cost is so high that it is not even shown across the
// entire range" in Figure 1.
type TraditionalFetch struct {
	ctx   *Ctx
	table *catalog.Table
	input RIDIter
	preds []ColPred
	batch *Batch
	eof   bool
}

// NewTraditionalFetch constructs the row-at-a-time fetch.
func NewTraditionalFetch(ctx *Ctx, t *catalog.Table, input RIDIter, preds []ColPred) *TraditionalFetch {
	return &TraditionalFetch{ctx: ctx, table: t, input: input, preds: preds}
}

// Open opens the RID source.
func (f *TraditionalFetch) Open() { f.input.Open() }

// NextBatch returns the next batch of up to max qualifying rows. RIDs are
// pulled from the input one at a time whatever the bound — the defining
// property of the traditional fetch is that its index I/O interleaves with
// its heap I/O per row.
func (f *TraditionalFetch) NextBatch(max int) (*Batch, bool) {
	if f.eof {
		return nil, false
	}
	if f.batch == nil {
		f.batch = getBatch()
	}
	b := f.batch
	b.reset()
	var cpu time.Duration
	for b.n < max {
		rids, ok := f.input.NextRIDBatch(1)
		if !ok {
			f.eof = true
			break
		}
		fetchRow(f.ctx, f.table, rids[0], f.preds, b, &cpu)
	}
	f.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// Close closes the RID source.
func (f *TraditionalFetch) Close() {
	f.input.Close()
	putBatch(f.batch)
	f.batch = nil
}

// ImprovedFetch is the paper's "improved index scan" fetch stage: it
// accumulates a batch of RIDs, sorts them into physical order, and fetches
// pages in ascending order, streaming through small gaps rather than
// seeking (reading a few unneeded pages is cheaper than a seek whenever the
// gap is shorter than seek/transfer pages).
//
// The batch size is bounded by the operator memory budget. When the result
// is larger than one batch, pages can be visited once per batch — the
// residual non-robustness that makes the improved plan "about 2½ times
// worse than a table scan" at 100% selectivity in Figure 1.
type ImprovedFetch struct {
	ctx      *Ctx
	table    *catalog.Table
	input    RIDIter
	preds    []ColPred
	maxBatch int

	batch     []storage.RID
	batchPos  int
	exhausted bool
	lastPage  storage.PageNo

	out      *Batch   // output buffer
	outEOF   bool     // exhaustion was reported
	sortKeys []uint64 // scratch for the packed RID sort

	// DisableGapStreaming turns off the stream-through-short-gaps
	// optimization, paying a seek for every page change — the ablation
	// baseline showing why the "improved" scan needs more than RID
	// sorting alone.
	DisableGapStreaming bool
}

// RIDMemBytes is the accounting size of one buffered RID.
const RIDMemBytes = 16

// NewImprovedFetch constructs the sorted-batch fetch. maxBatch <= 0 derives
// the batch size from the context's memory budget.
func NewImprovedFetch(ctx *Ctx, t *catalog.Table, input RIDIter, preds []ColPred, maxBatch int) *ImprovedFetch {
	if maxBatch <= 0 {
		b := ctx.Budget() / RIDMemBytes
		if b > 1<<28 {
			b = 1 << 28
		}
		maxBatch = int(b)
		if maxBatch < 1 {
			maxBatch = 1
		}
	}
	return &ImprovedFetch{ctx: ctx, table: t, input: input, preds: preds, maxBatch: maxBatch}
}

// Open opens the RID source.
func (f *ImprovedFetch) Open() {
	f.input.Open()
	f.lastPage = -1
}

// refill pulls the next batch of RIDs and sorts it physically. RIDs arrive
// in sub-batches bounded by the room left, so the producer's index I/O
// stops at exactly the entry that fills the budget.
func (f *ImprovedFetch) refill() {
	f.batch = f.batch[:0]
	f.batchPos = 0
	for len(f.batch) < f.maxBatch {
		rids, ok := f.input.NextRIDBatch(f.maxBatch - len(f.batch))
		if !ok {
			f.exhausted = true
			break
		}
		f.batch = append(f.batch, rids...)
	}
	n := len(f.batch)
	if n > 1 {
		// RIDs are unique, so any comparison sort yields the same
		// permutation; the packed sort avoids per-comparison calls.
		f.sortKeys = sortRIDsInPlace(f.batch, f.sortKeys)
		// n log2 n comparisons.
		f.ctx.ChargeCPU(simclock.AccountSort, CostRIDCompare,
			int64(n)*int64(bits.Len(uint(n))))
	}
	// A fresh batch restarts the gap-streaming state: the device would seek
	// back to the start of the table anyway.
	f.lastPage = -1
}

// NextBatch returns the next batch of up to max qualifying rows, refilling
// and sorting RID batches as needed.
func (f *ImprovedFetch) NextBatch(max int) (*Batch, bool) {
	if f.outEOF {
		return nil, false
	}
	if f.out == nil {
		f.out = getBatch()
	}
	b := f.out
	b.reset()
	var cpu time.Duration
	for b.n < max {
		if f.batchPos < len(f.batch) {
			rid := f.batch[f.batchPos]
			f.batchPos++
			stepTo(f.ctx, f.table, &f.lastPage, rid.Page, f.DisableGapStreaming)
			fetchRow(f.ctx, f.table, rid, f.preds, b, &cpu)
			continue
		}
		if f.exhausted {
			f.outEOF = true
			break
		}
		f.refill()
		if len(f.batch) == 0 && f.exhausted {
			f.outEOF = true
			break
		}
	}
	f.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// Close closes the RID source.
func (f *ImprovedFetch) Close() {
	f.input.Close()
	putBatch(f.out)
	f.out = nil
}

// BitmapFetch accumulates all input RIDs into a bitmap, then fetches in
// physical order exactly once per page — the System B strategy of Figure 8
// ("rows to be fetched are sorted very efficiently using a bitmap").
// Unlike ImprovedFetch there is no batch limit: the bitmap is compact
// enough to hold the whole result, so pages are never revisited.
type BitmapFetch struct {
	ctx   *Ctx
	table *catalog.Table
	input RIDIter
	preds []ColPred

	rids     []storage.RID
	pos      int
	lastPage storage.PageNo
	built    bool

	out    *Batch
	outEOF bool
}

// NewBitmapFetch constructs the bitmap-driven fetch.
func NewBitmapFetch(ctx *Ctx, t *catalog.Table, input RIDIter, preds []ColPred) *BitmapFetch {
	return &BitmapFetch{ctx: ctx, table: t, input: input, preds: preds}
}

// Open opens the RID source.
func (f *BitmapFetch) Open() {
	f.input.Open()
	f.lastPage = -1
}

// build drains the whole input into the bitmap before the first fetch, so
// it pulls full sub-batches and sums the bitmap-op charges over each.
func (f *BitmapFetch) build() {
	bm := bitmap.New(f.table.Heap.File())
	var cpu time.Duration
	for {
		rids, ok := f.input.NextRIDBatch(ridBatchCap)
		if !ok {
			break
		}
		cpu += CostBitmapOp * time.Duration(len(rids))
		for _, rid := range rids {
			bm.Add(rid)
		}
	}
	f.ctx.chargeDur(simclock.AccountCPU, cpu)
	f.rids = make([]storage.RID, 0, bm.Len())
	bm.Iterate(func(rid storage.RID) bool {
		f.rids = append(f.rids, rid)
		return true
	})
	f.built = true
}

// NextBatch returns the next batch of up to max qualifying rows in
// physical order.
func (f *BitmapFetch) NextBatch(max int) (*Batch, bool) {
	if f.outEOF {
		return nil, false
	}
	if !f.built {
		f.build()
	}
	if f.out == nil {
		f.out = getBatch()
	}
	b := f.out
	b.reset()
	var cpu time.Duration
	for b.n < max && f.pos < len(f.rids) {
		rid := f.rids[f.pos]
		f.pos++
		stepTo(f.ctx, f.table, &f.lastPage, rid.Page, false)
		fetchRow(f.ctx, f.table, rid, f.preds, b, &cpu)
	}
	if f.pos >= len(f.rids) {
		f.outEOF = true
	}
	f.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// Close closes the RID source.
func (f *BitmapFetch) Close() {
	f.input.Close()
	putBatch(f.out)
	f.out = nil
}
