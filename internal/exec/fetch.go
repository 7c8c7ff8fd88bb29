package exec

import (
	"slices"
	"time"

	"robustmap/internal/bitmap"
	"robustmap/internal/catalog"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// fetchRow resolves one RID to a decoded, visibility-checked row in the
// batch, applying residual predicates (see decodeRow). Shared by all fetch
// strategies.
func fetchRow(ctx *Ctx, t *catalog.Table, rid storage.RID, preds rowPreds, b *Batch, cpu *time.Duration) bool {
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
	preds rowPreds
	batch *Batch
	eof   bool
}

// NewTraditionalFetch constructs the row-at-a-time fetch.
func NewTraditionalFetch(ctx *Ctx, t *catalog.Table, input RIDIter, preds []ColPred) *TraditionalFetch {
	return &TraditionalFetch{ctx: ctx, table: t, input: input, preds: newRowPreds(t, preds)}
}

// Open opens the RID source.
func (f *TraditionalFetch) Open() {
	f.input.Open()
	f.eof = false
}

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
	preds    rowPreds
	maxBatch int

	batch     *ridBuf // the current sorted RID batch; held from Open to Close
	batchPos  int
	exhausted bool
	lastPage  storage.PageNo

	out    *Batch // output buffer
	outEOF bool   // exhaustion was reported

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
	return &ImprovedFetch{ctx: ctx, table: t, input: input, preds: newRowPreds(t, preds), maxBatch: maxBatch}
}

// Open opens the RID source and takes an empty RID batch.
func (f *ImprovedFetch) Open() {
	f.input.Open()
	f.batch = getRIDBuf()
	f.batchPos = 0
	f.exhausted, f.outEOF = false, false
	f.lastPage = -1
}

// refill pulls the next batch of RIDs and sorts it physically. RIDs arrive
// in sub-batches bounded by the room left, so the producer's index I/O
// stops at exactly the entry that fills the budget.
func (f *ImprovedFetch) refill() {
	b := f.batch
	b.rids = b.rids[:0]
	f.batchPos = 0
	for len(b.rids) < f.maxBatch {
		rids, ok := f.input.NextRIDBatch(f.maxBatch - len(b.rids))
		if !ok {
			f.exhausted = true
			break
		}
		b.rids = append(b.rids, rids...)
	}
	sortRIDs(f.ctx, b)
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
		if f.batchPos < len(f.batch.rids) {
			rid := f.batch.rids[f.batchPos]
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
		if len(f.batch.rids) == 0 && f.exhausted {
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

// Close closes the RID source and releases the buffers.
func (f *ImprovedFetch) Close() {
	f.input.Close()
	putRIDBuf(f.batch)
	f.batch = nil
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
	preds rowPreds

	rids     *ridBuf // the bitmap in physical order; held from build to Close
	pos      int
	lastPage storage.PageNo
	built    bool

	out    *Batch
	outEOF bool
}

// NewBitmapFetch constructs the bitmap-driven fetch.
func NewBitmapFetch(ctx *Ctx, t *catalog.Table, input RIDIter, preds []ColPred) *BitmapFetch {
	return &BitmapFetch{ctx: ctx, table: t, input: input, preds: newRowPreds(t, preds)}
}

// Open opens the RID source and forgets any previous run's bitmap.
func (f *BitmapFetch) Open() {
	f.input.Open()
	f.built, f.outEOF = false, false
	f.pos = 0
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
	f.rids = getRIDBuf()
	f.rids.rids = slices.Grow(f.rids.rids, int(bm.Len()))
	bm.Iterate(func(rid storage.RID) bool {
		f.rids.rids = append(f.rids.rids, rid)
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
	rids := f.rids.rids
	for b.n < max && f.pos < len(rids) {
		rid := rids[f.pos]
		f.pos++
		stepTo(f.ctx, f.table, &f.lastPage, rid.Page, false)
		fetchRow(f.ctx, f.table, rid, f.preds, b, &cpu)
	}
	if f.pos >= len(rids) {
		f.outEOF = true
	}
	f.ctx.chargeDur(simclock.AccountCPU, cpu)
	if b.n == 0 {
		return nil, false
	}
	return b, true
}

// Close closes the RID source and releases the buffers.
func (f *BitmapFetch) Close() {
	f.input.Close()
	putRIDBuf(f.rids)
	f.rids = nil
	putBatch(f.out)
	f.out = nil
}
