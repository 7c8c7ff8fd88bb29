// Package exec implements the query execution operators whose robustness
// the paper's maps visualize: table scans, index range scans, three row
// fetch strategies (traditional, improved, bitmap-driven), RID intersection
// joins (merge and hash), general equality joins, external sort with
// graceful and non-graceful spill policies, and aggregation.
//
// Operators follow the Volcano iterator model with one pull method whose
// granularity the consumer chooses per call (see batch.go). All physical
// page access goes through the buffer pool, and all per-row CPU work is
// charged to the virtual clock, so a query's "execution time" is exactly
// the cost its plan shape induces — the quantity swept by the robustness
// maps.
package exec

import (
	"time"

	"robustmap/internal/mvcc"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// Per-row CPU cost constants. Their absolute values are calibrated so that
// CPU work is visible but I/O dominates at realistic data sizes, matching
// the 2009-era disk-bound systems the paper measured.
const (
	CostPredicate   = 25 * time.Nanosecond // evaluate one column predicate
	CostRowDecode   = 60 * time.Nanosecond // decode one stored row
	CostIndexEntry  = 20 * time.Nanosecond // produce one index entry
	CostEmit        = 10 * time.Nanosecond // hand one row to the consumer
	CostHashOp      = 50 * time.Nanosecond // hash-table insert or probe
	CostSortCompare = 25 * time.Nanosecond // row comparison during sort
	CostRIDCompare  = 15 * time.Nanosecond // RID comparison during RID sort
	CostBitmapOp    = 15 * time.Nanosecond // bitmap insert or test
)

// Ctx carries the per-query execution environment.
type Ctx struct {
	Clock *simclock.Clock
	Pool  *storage.Pool
	// Snap is the visibility horizon for versioned tables; ignored for
	// unversioned ones.
	Snap mvcc.Snapshot
	// MemoryBudget is the byte budget for memory-intensive operators
	// (sort, hash join). Zero means "effectively unlimited".
	MemoryBudget int64
}

// ChargeCPU charges n units of the given per-unit cost.
func (c *Ctx) ChargeCPU(acct simclock.Account, unit time.Duration, n int64) {
	if n <= 0 {
		return
	}
	c.Clock.Advance(acct, unit*time.Duration(n))
}

// Budget returns the effective memory budget in bytes.
func (c *Ctx) Budget() int64 {
	if c.MemoryBudget <= 0 {
		return 1 << 62
	}
	return c.MemoryBudget
}

// Row is an executor tuple.
type Row = []record.Value

// RowIter is the Volcano iterator over rows. Implementations are
// single-pass: Open, NextBatch until false, Close. NextBatch returns the
// next 1 to max live rows, or (nil, false) when exhausted, after which it
// must not be called again. It leaves the producer in exactly the state
// max one-row pulls would have: no page is read and no charge made for a
// row beyond the last one returned. The batch belongs to the producer and
// is valid until its next NextBatch or Close (see Batch).
type RowIter interface {
	Open()
	NextBatch(max int) (*Batch, bool)
	Close()
}

// RIDIter is the Volcano iterator over record identifiers, produced by
// index scans and intersection joins and consumed by fetch operators.
// NextRIDBatch is NextBatch for RIDs: between 1 and max of them, or
// (nil, false) when exhausted. The slice is a window onto a pooled buffer
// of the producer's (see ridBuf) and is valid only until the producer's
// next NextRIDBatch or Close: a consumer copies the RIDs it keeps, as every
// fetch and intersection does. The bound is what lets a budgeted consumer
// (ImprovedFetch's refill) stop the producer's index I/O at exactly the
// entry it has room for.
type RIDIter interface {
	Open()
	NextRIDBatch(max int) ([]storage.RID, bool)
	Close()
}

// Drain exhausts a row iterator and returns the row count — the standard
// way experiments execute a plan to completion without materializing
// results (the paper measures execution time, not result transfer).
func Drain(it RowIter) int64 { return drain(it, BatchCapacity) }

// drain is Drain pulling at most max rows per call. The virtual time
// measured does not depend on max; only the wall-clock cost does.
func drain(it RowIter, max int) int64 {
	it.Open()
	defer it.Close()
	var n int64
	for {
		b, ok := it.NextBatch(max)
		if !ok {
			return n
		}
		n += int64(b.Len())
	}
}

// DrainRIDs exhausts a RID iterator and returns the count.
func DrainRIDs(it RIDIter) int64 {
	it.Open()
	defer it.Close()
	var n int64
	for {
		rids, ok := it.NextRIDBatch(ridBatchCap)
		if !ok {
			return n
		}
		n += int64(len(rids))
	}
}

// ColPred is a half-open interval predicate Lo <= col < Hi on one column.
// A Null bound is unbounded on that side. This is the predicate form of the
// paper's experiments (range restrictions on one or two columns).
type ColPred struct {
	Col int // ordinal in the operator's input row
	Lo  record.Value
	Hi  record.Value
}

// Matches evaluates the predicate.
func (p ColPred) Matches(row Row) bool {
	v := row[p.Col]
	if !p.Lo.IsNull() && record.Compare(v, p.Lo) < 0 {
		return false
	}
	if !p.Hi.IsNull() && record.Compare(v, p.Hi) >= 0 {
		return false
	}
	return true
}
