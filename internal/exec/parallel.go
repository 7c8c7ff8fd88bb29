package exec

import (
	"fmt"
	"time"

	"robustmap/internal/catalog"
	"robustmap/internal/core"
	"robustmap/internal/storage"
)

// Parallel execution support for the paper's §4 roadmap ("visualizations
// of entire query execution plans including parallel ones") in the style
// of the shared-nothing study the paper cites [SD89].
//
// The simulated cluster gives each worker its own device and buffer pool
// (shared-nothing I/O paths) over the shared disk image. A parallel plan's
// elapsed time is the makespan — the maximum of the workers' virtual
// times — plus a per-row coordinator merge charge. Skewed partitions
// therefore degrade the makespan toward the largest partition's cost,
// which is exactly the robustness effect the parallel experiment maps.

// PageRange restricts a scan to heap pages [Lo, Hi).
type PageRange struct {
	Lo, Hi storage.PageNo
}

// RangedTableScan is a TableScan over a contiguous page range — the
// per-worker fragment of a partitioned parallel scan.
type RangedTableScan struct {
	inner *TableScan
	rng   PageRange
}

// NewRangedTableScan constructs the fragment scan.
func NewRangedTableScan(ctx *Ctx, t *catalog.Table, preds []ColPred, rng PageRange) *RangedTableScan {
	if rng.Lo < 0 || rng.Hi < rng.Lo {
		panic(fmt.Sprintf("exec: invalid page range [%d, %d)", rng.Lo, rng.Hi))
	}
	return &RangedTableScan{inner: NewTableScan(ctx, t, preds), rng: rng}
}

// Open positions the scan before the range.
func (s *RangedTableScan) Open() {
	s.inner.Open()
	if s.rng.Hi < s.inner.pages {
		s.inner.pages = s.rng.Hi
	}
	s.inner.pg = s.rng.Lo - 1
}

// NextBatch returns up to max matching rows within the range.
func (s *RangedTableScan) NextBatch(max int) (*Batch, bool) { return s.inner.NextBatch(max) }

// Close releases the current pin.
func (s *RangedTableScan) Close() { s.inner.Close() }

// WorkerResult is one worker's measured fragment execution.
type WorkerResult struct {
	Rows int64
	Time time.Duration
}

// ParallelResult aggregates a parallel execution.
type ParallelResult struct {
	Rows     int64
	Workers  []WorkerResult
	Makespan time.Duration // max worker time + coordinator merge
	Total    time.Duration // sum of worker times (resource cost)
}

// Speedup returns Total/Makespan — the effective parallelism achieved.
func (r ParallelResult) Speedup() float64 {
	if r.Makespan <= 0 {
		return 1
	}
	return float64(r.Total) / float64(r.Makespan)
}

// CoordinatorMergeCost is the per-row charge for merging worker outputs.
const CoordinatorMergeCost = 15 * time.Nanosecond

// RunParallel executes one iterator per worker, each built against its own
// fresh context (own clock, device, pool), and reports the makespan. The
// mkWorker callback receives the worker index and its private context.
// Worker fragments run serially on the calling goroutine; use
// RunParallelOn to execute them on real goroutines.
func RunParallel(workers int, mkCtx func(worker int) *Ctx,
	mkWorker func(worker int, ctx *Ctx) RowIter) ParallelResult {
	return RunParallelOn(core.SerialExecutor{}, workers, mkCtx, mkWorker)
}

// RunParallelOn is RunParallel with the worker fragments scheduled by the
// given executor. Virtual-time results are identical for every executor —
// each fragment owns its clock, device, and pool, and the reduction over
// worker results happens in worker order after all fragments finish — but
// a parallel executor overlaps the real (host) work of simulating the
// fragments, exactly as sweeps overlap measurement cells.
func RunParallelOn(ex core.SweepExecutor, workers int, mkCtx func(worker int) *Ctx,
	mkWorker func(worker int, ctx *Ctx) RowIter) ParallelResult {

	if workers < 1 {
		panic("exec: RunParallel with no workers")
	}
	res := ParallelResult{Workers: make([]WorkerResult, workers)}
	ex.Execute(workers, func(w int) {
		ctx := mkCtx(w)
		rows := Drain(mkWorker(w, ctx))
		res.Workers[w] = WorkerResult{Rows: rows, Time: ctx.Clock.Now()}
	})
	var maxTime time.Duration
	for _, wr := range res.Workers {
		res.Rows += wr.Rows
		res.Total += wr.Time
		if wr.Time > maxTime {
			maxTime = wr.Time
		}
	}
	res.Makespan = maxTime + CoordinatorMergeCost*time.Duration(res.Rows)
	res.Total += CoordinatorMergeCost * time.Duration(res.Rows)
	return res
}

// SkewedRanges partitions [0, pages) into n contiguous ranges whose sizes
// follow a geometric skew: skew = 1 gives equal ranges; skew = 2 gives
// each range twice the pages of the next. This models the partition-size
// imbalance whose effect on parallel join performance [SD89] examines.
func SkewedRanges(pages storage.PageNo, n int, skew float64) []PageRange {
	if n < 1 || skew < 1 {
		panic(fmt.Sprintf("exec: SkewedRanges(n=%d, skew=%g)", n, skew))
	}
	weights := make([]float64, n)
	w, total := 1.0, 0.0
	for i := n - 1; i >= 0; i-- {
		weights[i] = w
		total += w
		w *= skew
	}
	out := make([]PageRange, n)
	at := storage.PageNo(0)
	for i := 0; i < n; i++ {
		share := storage.PageNo(float64(pages) * weights[i] / total)
		if i == n-1 {
			share = pages - at
		}
		out[i] = PageRange{Lo: at, Hi: at + share}
		at += share
	}
	return out
}
