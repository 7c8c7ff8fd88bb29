package exec

import (
	"testing"
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
