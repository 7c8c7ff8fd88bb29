package exec

import (
	"runtime"
	"sync"
	"testing"

	"robustmap/internal/mdam"
	"robustmap/internal/record"
)

// Per-operator micro-benchmarks for the batched hot path. Each iteration
// is one "cell" in sweep terms: build the operator tree, drain it to
// completion, and let the virtual clock absorb the charges. The first
// iteration pays the cold buffer pool; steady state is what the sweeps
// see, since sessions reuse pools across cells.

func BenchmarkTableScanCell(b *testing.B) {
	e := newTestEnv(b, 20011)
	aCol := e.tbl.Schema.MustOrdinal("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Drain(NewTableScan(e.ctx, e.tbl, []ColPred{predLess(aCol, e.n/2)}))
	}
}

func BenchmarkFetchCell(b *testing.B) {
	e := newTestEnv(b, 20011)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Drain(NewImprovedFetch(e.ctx, e.tbl, e.scanA(e.n/8), nil, 0))
	}
}

// ridIntersections are the two RID joins of the paper's Figure 5 plans, over
// half of each index: a quarter of the table survives the intersection.
var ridIntersections = []struct {
	name string
	join func(e *env) RIDIter
}{
	{"merge", func(e *env) RIDIter { return NewRIDMergeIntersect(e.ctx, e.scanA(e.n/2), e.scanB(e.n/2)) }},
	{"hash", func(e *env) RIDIter { return NewRIDHashIntersect(e.ctx, e.scanA(e.n/2), e.scanB(e.n/2)) }},
}

// BenchmarkRIDIntersectCell tracks the RID path end to end: two index
// scans gathered, intersected, sorted physically and fetched.
func BenchmarkRIDIntersectCell(b *testing.B) {
	for _, c := range ridIntersections {
		b.Run(c.name, func(b *testing.B) {
			e := newTestEnv(b, 20011)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Drain(NewImprovedFetch(e.ctx, e.tbl, c.join(e), nil, 0))
			}
		})
	}
}

// probingMDAM is an MDAM scan that re-probes once per non-qualifying entry:
// every leading value has one entry, and half of them miss b < n/2.
func probingMDAM(e *env) *MDAMScan {
	return NewMDAMScan(e.ctx, e.ixAB, mdam.All(), mdam.LessThan(record.Int(e.n/2)))
}

// BenchmarkMDAMCell tracks the probe path: about n/2 tree descents.
func BenchmarkMDAMCell(b *testing.B) {
	e := newTestEnv(b, 20011)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Drain(probingMDAM(e))
	}
}

func BenchmarkFilterProject(b *testing.B) {
	e := newTestEnv(b, 20011)
	aCol := e.tbl.Schema.MustOrdinal("a")
	bCol := e.tbl.Schema.MustOrdinal("b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan := NewTableScan(e.ctx, e.tbl, nil)
		filt := NewFilter(e.ctx, scan, []ColPred{predLess(aCol, e.n/2), predLess(bCol, e.n/2)})
		Drain(NewProject(e.ctx, filt, []int{aCol, bCol}))
	}
}

// BenchmarkSortScanCell tracks the pull path of the operators whose own
// I/O interleaves with their input's: Sort takes a predicated table scan
// one row per pull (bound 1), sorting in memory and spilling gracefully.
func BenchmarkSortScanCell(b *testing.B) {
	for _, c := range []struct {
		name   string
		budget int64
	}{{"mem", 1 << 30}, {"spill", 256 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			e := newTestEnv(b, 20011)
			e.ctx.MemoryBudget = c.budget
			aCol := e.tbl.Schema.MustOrdinal("a")
			bCol := e.tbl.Schema.MustOrdinal("b")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan := NewTableScan(e.ctx, e.tbl, []ColPred{predLess(aCol, e.n/2)})
				Drain(NewSort(e.ctx, scan, e.tbl.Schema, []int{bCol}, PolicyGraceful))
			}
		})
	}
}

// TestBatchedScanFilterProjectAllocFree pins the tentpole's allocation
// contract: once the pipeline's buffers are warm, pulling further batches
// through scan → filter → project allocates nothing — no per-row and no
// per-batch garbage. The table is sized to fit the buffer pool so the
// guard measures the executor, not pool eviction.
func TestBatchedScanFilterProjectAllocFree(t *testing.T) {
	e := newTestEnv(t, 20011)
	aCol := e.tbl.Schema.MustOrdinal("a")
	bCol := e.tbl.Schema.MustOrdinal("b")

	scan := NewTableScan(e.ctx, e.tbl, nil)
	filt := NewFilter(e.ctx, scan, []ColPred{predLess(aCol, e.n/2), predLess(bCol, e.n/2)})
	proj := NewProject(e.ctx, filt, []int{aCol, bCol})

	var root RowIter = proj
	root.Open()
	defer root.Close()
	// Warm up: first batches grow row buffers, arenas, and selection
	// vectors to steady-state capacity.
	for i := 0; i < 3; i++ {
		if _, ok := root.NextBatch(BatchCapacity); !ok {
			t.Fatal("pipeline exhausted during warm-up")
		}
	}
	avg := testing.AllocsPerRun(8, func() {
		if _, ok := root.NextBatch(BatchCapacity); !ok {
			t.Fatal("pipeline exhausted during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("batched scan→filter→project allocates %v per batch in steady state, want 0", avg)
	}
}

// TestBatchedTableScanAllocFree is the same guard for a bare scan.
func TestBatchedTableScanAllocFree(t *testing.T) {
	e := newTestEnv(t, 20011)
	scan := NewTableScan(e.ctx, e.tbl, nil)
	var root RowIter = scan
	root.Open()
	defer root.Close()
	for i := 0; i < 3; i++ {
		if _, ok := root.NextBatch(BatchCapacity); !ok {
			t.Fatal("scan exhausted during warm-up")
		}
	}
	avg := testing.AllocsPerRun(8, func() {
		if _, ok := root.NextBatch(BatchCapacity); !ok {
			t.Fatal("scan exhausted during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("batched table scan allocates %v per batch in steady state, want 0", avg)
	}
}

// TestWarmRIDIntersectFetchAllocFree is the guard for the pooled RID
// buffers: the index scans' windows, the intersection's two gathered inputs
// and its result, the fetch's batch and the sort's key buffers. A cell
// builds its operators anew, as a sweep does, and takes all of those from
// ridBufPool; once earlier cells have grown them, pulling every batch of a
// cell — gather, sort, merge, fetch — allocates nothing beyond what
// constructing, opening and closing the operators does.
func TestWarmRIDIntersectFetchAllocFree(t *testing.T) {
	// One processor from the warm-up on, as AllocsPerRun will insist: a
	// sync.Pool keeps its items per processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if poolDropsPuts() {
		t.Skip("sync.Pool is dropping Puts (it does, at random, under the race detector): no pool stays warm")
	}
	e := newTestEnv(t, 20011)
	cell := func(pull bool) func() {
		return func() {
			it := NewImprovedFetch(e.ctx, e.tbl, ridIntersections[0].join(e), nil, 0)
			it.Open()
			for more := pull; more; {
				_, more = it.NextBatch(BatchCapacity)
			}
			it.Close()
		}
	}
	for i := 0; i < 8; i++ { // every pooled buffer serves in every role
		cell(true)()
	}
	idle := testing.AllocsPerRun(8, cell(false))
	if pulled := testing.AllocsPerRun(8, cell(true)); pulled != idle {
		t.Fatalf("a warm fetch over a merge intersection allocates %v per cell, %v of them in NextBatch, want 0 there",
			pulled, pulled-idle)
	}
}

// poolDropsPuts reports whether a sync.Pool fails to hand back what it was
// just given, on one processor and with no collection in between.
func poolDropsPuts() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestWarmMDAMProbesAllocFree is the guard for the probe path: a tree
// descent keeps no path, the probe target is built in the scan's scratch
// key and the cursor is re-positioned, not replaced.
func TestWarmMDAMProbesAllocFree(t *testing.T) {
	e := newTestEnv(t, 20011)
	Drain(probingMDAM(e)) // decode every index node once
	scan := probingMDAM(e)
	scan.Open()
	defer scan.Close()
	const max = 256 // about 40 batches
	for i := 0; i < 3; i++ {
		if _, ok := scan.NextBatch(max); !ok {
			t.Fatal("scan exhausted during warm-up")
		}
	}
	probes := scan.Probes
	avg := testing.AllocsPerRun(8, func() {
		if _, ok := scan.NextBatch(max); !ok {
			t.Fatal("scan exhausted during measurement")
		}
	})
	if scan.Probes-probes < 8*max/2 {
		t.Fatalf("only %d probes during measurement: the guard is not exercising the probe path", scan.Probes-probes)
	}
	if avg != 0 {
		t.Fatalf("MDAM scan with probes allocates %v per batch in steady state, want 0", avg)
	}
}
