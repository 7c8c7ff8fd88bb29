package exec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"robustmap/internal/catalog"
	"robustmap/internal/iomodel"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// stubBatcher serves pre-built row groups as batches — never across a
// group boundary and never more than the bound — standing in for a native
// producer in edge-case tests. It records every bound it was asked for.
type stubBatcher struct {
	groups [][]Row
	gi     int
	b      *Batch
	asked  []int
}

func newStubBatcher(groups [][]Row) *stubBatcher { return &stubBatcher{groups: groups} }

func (s *stubBatcher) Open()  {}
func (s *stubBatcher) Close() { putBatch(s.b); s.b = nil }

func (s *stubBatcher) NextBatch(max int) (*Batch, bool) {
	s.asked = append(s.asked, max)
	if s.gi >= len(s.groups) {
		return nil, false
	}
	g := s.groups[s.gi]
	if len(g) > max {
		g, s.groups[s.gi] = g[:max], g[max:]
	} else {
		s.gi++
	}
	if s.b == nil {
		s.b = getBatch()
	}
	s.b.reset()
	for _, r := range g {
		s.b.commit(append(s.b.rowBuf(), r...))
	}
	return s.b, true
}

func intRows(vals ...int64) []Row {
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{record.Int(v)}
	}
	return rows
}

func stubCtx() *Ctx {
	return &Ctx{Clock: simclock.New(), MemoryBudget: 1 << 30}
}

func drainBatched(t *testing.T, op RowIter) []int64 {
	t.Helper()
	op.Open()
	defer op.Close()
	var out []int64
	for {
		b, ok := op.NextBatch(BatchCapacity)
		if !ok {
			return out
		}
		if b.Len() == 0 {
			t.Fatal("operator emitted an empty batch, violating the NextBatch contract")
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i)[0].AsInt())
		}
	}
}

// TestFilterSkipsFullyEliminatedBatches drives a Filter whose middle
// input batch fails the predicate entirely: the filter must keep pulling
// rather than emit an empty batch or report premature exhaustion.
func TestFilterSkipsFullyEliminatedBatches(t *testing.T) {
	src := newStubBatcher([][]Row{
		intRows(1, 2, 99),
		intRows(80, 90, 95), // eliminated wholesale
		intRows(3, 97, 4),
	})
	f := NewFilter(stubCtx(), src, []ColPred{{Col: 0, Hi: record.Int(50)}})
	got := drainBatched(t, f)
	if want := []int64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestFilterAllEliminated covers the everything-filtered case: NextBatch
// must return false, not loop or emit empties.
func TestFilterAllEliminated(t *testing.T) {
	src := newStubBatcher([][]Row{intRows(60, 70), intRows(80)})
	f := NewFilter(stubCtx(), src, []ColPred{{Col: 0, Hi: record.Int(50)}})
	if got := drainBatched(t, f); len(got) != 0 {
		t.Fatalf("got %v, want no rows", got)
	}
}

// TestLimitCutsMidBatch lands the limit inside the producer's second
// group: the limit must return exactly n rows by asking for exactly the
// rows it still wants — a producer never returns more than it was asked
// for, so there is nothing to cut — and must not pull again once satisfied.
func TestLimitCutsMidBatch(t *testing.T) {
	src := newStubBatcher([][]Row{
		intRows(0, 1, 2, 3),
		intRows(4, 5, 6, 7),
		intRows(8, 9),
	})
	got := drainBatched(t, NewLimit(src, 6))
	if want := []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("limit 6 returned %v, want %v", got, want)
	}
	// n − seen before each pull: 6, then 2.
	if want := []int{6, 2}; !reflect.DeepEqual(src.asked, want) {
		t.Fatalf("producer was asked for %v rows, want %v", src.asked, want)
	}
}

// TestLimitCutsMidSelectedBatch is the same through batches that carry a
// selection vector (filter upstream of limit): the filter hands the
// limit's shrinking bound down, so the producer is never asked for more
// than the rows still wanted even while whole pulls are filtered away.
func TestLimitCutsMidSelectedBatch(t *testing.T) {
	src := newStubBatcher([][]Row{
		intRows(0, 100, 1, 101, 2, 102),
		intRows(3, 103, 4, 104),
	})
	f := NewFilter(stubCtx(), src, []ColPred{{Col: 0, Hi: record.Int(50)}})
	got := drainBatched(t, NewLimit(f, 3))
	if want := []int64{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// (0,100,1) keeps two rows; then one row at a time: 101 is dropped,
	// 2 completes the limit.
	if want := []int{3, 1, 1}; !reflect.DeepEqual(src.asked, want) {
		t.Fatalf("producer was asked for %v rows, want %v", src.asked, want)
	}
}

// TestLimitIsDemandExact pins the limit's cost: a limited plan measures
// the same virtual time, accounts and device counters whatever bound its
// root is pulled at, and reads strictly fewer pages than the plan without
// the limit — the subtree stops at the row that satisfies it.
func TestLimitIsDemandExact(t *testing.T) {
	type measured struct {
		rows     int64
		time     time.Duration
		accounts map[simclock.Account]time.Duration
		device   iomodel.Stats
	}
	measure := func(build func(e *env) RowIter, limit bool, max int) measured {
		e := newTestEnv(t, 4001)
		e.ctx.Pool.FlushAll() // cold pool: the plan pays for every page it touches
		e.ctx.Pool.Device().ResetStats()
		e.ctx.Clock.Reset()
		it := build(e)
		if limit {
			it = NewLimit(it, 10)
		}
		rows := drain(it, max)
		return measured{rows, e.ctx.Clock.Now(), e.ctx.Clock.Accounts(), e.ctx.Pool.Device().Stats()}
	}
	children := map[string]func(e *env) RowIter{
		"table scan": func(e *env) RowIter {
			return NewTableScan(e.ctx, e.tbl, []ColPred{predLess(colA, e.n/2)})
		},
		"covering scan": func(e *env) RowIter {
			return NewCoveringIndexScan(e.ctx, e.ixAB, nil, nil, []ColPred{predLess(1, e.n/2)})
		},
		"filter over scan": func(e *env) RowIter {
			return NewFilter(e.ctx, NewTableScan(e.ctx, e.tbl, nil), []ColPred{predLess(colB, e.n/2)})
		},
	}
	for name, child := range children {
		one := measure(child, true, 1)
		full := measure(child, true, BatchCapacity)
		if one.rows != 10 {
			t.Errorf("%s: limit 10 returned %d rows", name, one.rows)
		}
		if !reflect.DeepEqual(one, full) {
			t.Errorf("%s: limit 10 depends on the root's bound:\n at 1    %+v\n at %d %+v", name, one, BatchCapacity, full)
		}
		if all := measure(child, false, BatchCapacity); full.device.PagesRead >= all.device.PagesRead {
			t.Errorf("%s: limit 10 read %d pages, the unlimited plan %d", name, full.device.PagesRead, all.device.PagesRead)
		}
	}
}

// TestSortSpillInputEndsOnBatchBoundary runs the spilling sort with an
// input whose row count is an exact multiple of BatchCapacity, delivered
// in full groups — the boundary where an off-by-one in exhaustion
// handling would hand Sort a phantom row or drop the last one.
func TestSortSpillInputEndsOnBatchBoundary(t *testing.T) {
	e := newTestEnv(t, 101)
	n := 2 * BatchCapacity
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % n) // scrambled but distinct
	}
	groups := [][]Row{
		intRows(vals[:BatchCapacity]...),
		intRows(vals[BatchCapacity:]...),
	}
	sch := record.NewSchema(record.Column{Name: "v", Type: record.TypeInt64})

	ctx := *e.ctx
	ctx.MemoryBudget = 4096 // a few pages: forces run spills
	got := drainBatched(t, NewSort(&ctx, newStubBatcher(groups), sch, []int{0}, PolicyGraceful))
	if len(got) != n {
		t.Fatalf("sort returned %d rows, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("position %d: got %d, want %d", i, got[i], i)
		}
	}
}

// strEnv is a table s(k string, v int) of n rows stored in scrambled
// order — row i holds k = key(p(i)), v = p(i) for a permutation p — with
// an index on v. Every k is distinct and k order equals v order, so a
// traditional fetch through the index yields the rows in k order. Both
// producers decode into batch arenas: a consumer that keeps one of their
// string values past its next pull without cloning it ends up holding
// another row's bytes.
type strEnv struct {
	ctx *Ctx
	tbl *catalog.Table
	ixV *catalog.Index
	n   int64
}

func strKey(j int64) record.Value { return record.String_(fmt.Sprintf("key-%05d", j)) }

func (e *strEnv) perm(i int64) int64 { return (i * 611) % e.n }

func newStrEnv(t *testing.T, n int64) *strEnv {
	clock := simclock.New()
	pool := storage.NewPool(storage.NewDisk(), iomodel.NewDevice(iomodel.DefaultParams(), clock), clock, 512)
	sch := record.NewSchema(
		record.Column{Name: "k", Type: record.TypeString},
		record.Column{Name: "v", Type: record.TypeInt64},
	)
	e := &strEnv{n: n, tbl: &catalog.Table{Name: "s", Schema: sch, Heap: storage.CreateHeap(pool)}}
	for i := int64(0); i < n; i++ {
		enc, err := sch.Encode(nil, Row{strKey(e.perm(i)), record.Int(e.perm(i))})
		if err != nil {
			t.Fatal(err)
		}
		e.tbl.Heap.Append(enc)
	}
	var err error
	if e.ixV, err = catalog.BuildIndex("s_v", e.tbl, catalog.Loader(pool, clock), false, "v"); err != nil {
		t.Fatal(err)
	}
	e.ctx = &Ctx{Clock: clock, Pool: pool}
	return e
}

// scan yields the rows in stored (scrambled) order.
func (e *strEnv) scan() RowIter { return NewTableScan(e.ctx, e.tbl, nil) }

// ordered yields the rows in k order.
func (e *strEnv) ordered() RowIter {
	return NewTraditionalFetch(e.ctx, e.tbl, NewIndexRangeScan(e.ctx, e.ixV, nil, nil), nil)
}

// TestRetainedValuesSurviveLaterBatches runs every operator that keeps
// input values past its next pull over a multi-batch input of distinct
// strings and checks the exact output. A retention site that keeps an
// arena view instead of a clone returns some other row's key here.
func TestRetainedValuesSurviveLaterBatches(t *testing.T) {
	// Three batches: the first grows a cold batch's arena (so its rows end
	// up viewing superseded backing arrays); from the second on rows view
	// the array the next batch overwrites.
	const n = 2*BatchCapacity + 476
	const spill = 4096 // bytes: every memory-adaptive operator spills
	minMax := []AggSpec{{Kind: AggMin, Col: 0}, {Kind: AggMax, Col: 0}}

	// Expected rows, by p = the row's v (and the rank of its k).
	pair := func(p int64) Row { return Row{strKey(p), record.Int(p)} }
	joined := func(p int64) Row { return append(pair(p), pair(p)...) }
	grouped := func(p int64) Row { return Row{strKey(p), strKey(p), strKey(p)} }
	byRank := func(row func(int64) Row) func(*strEnv) []Row {
		return func(e *strEnv) []Row {
			out := make([]Row, e.n)
			for p := range out {
				out[p] = row(int64(p))
			}
			return out
		}
	}
	stored := func(row func(int64) Row) func(*strEnv) []Row {
		return func(e *strEnv) []Row {
			out := make([]Row, e.n)
			for i := range out {
				out[i] = row(e.perm(int64(i)))
			}
			return out
		}
	}

	cases := []struct {
		name   string
		budget int64
		build  func(e *strEnv) RowIter
		want   func(e *strEnv) []Row
		anyOrd bool // output order is a hash order: compare sorted by k
	}{
		{"sort/mem", 0, func(e *strEnv) RowIter {
			return NewSort(e.ctx, e.scan(), e.tbl.Schema, []int{0}, PolicyGraceful)
		}, byRank(pair), false},
		{"sort/graceful spill", spill, func(e *strEnv) RowIter {
			return NewSort(e.ctx, e.scan(), e.tbl.Schema, []int{0}, PolicyGraceful)
		}, byRank(pair), false},
		{"sort/degenerate spill", spill, func(e *strEnv) RowIter {
			return NewSort(e.ctx, e.scan(), e.tbl.Schema, []int{0}, PolicyDegenerate)
		}, byRank(pair), false},
		{"merge join", 0, func(e *strEnv) RowIter {
			return NewMergeJoinRows(e.ctx, e.ordered(), e.ordered(), []int{0}, []int{0})
		}, byRank(joined), false},
		{"hash join/mem", 0, func(e *strEnv) RowIter {
			return NewHashJoinRows(e.ctx, e.scan(), e.scan(), e.tbl.Schema, e.tbl.Schema, []int{0}, []int{0})
		}, stored(joined), false},
		{"hash join/spill", spill, func(e *strEnv) RowIter {
			return NewHashJoinRows(e.ctx, e.ordered(), e.scan(), e.tbl.Schema, e.tbl.Schema, []int{0}, []int{0})
		}, byRank(joined), true},
		{"nested loop join", 0, func(e *strEnv) RowIter {
			return NewNestedLoopJoin(e.ctx, e.scan(), e.ordered(), []int{0}, []int{0})
		}, stored(joined), false},
		{"index nested loop join", 0, func(e *strEnv) RowIter {
			return NewIndexNestedLoopJoin(e.ctx, e.scan(), e.ixV, 1)
		}, stored(joined), false},
		{"stream aggregate", 0, func(e *strEnv) RowIter {
			return NewStreamAggregate(e.ctx, e.ordered(), []int{0}, minMax)
		}, byRank(grouped), false},
		{"spilling hash aggregate/mem", 0, func(e *strEnv) RowIter {
			return NewSpillingHashAggregate(e.ctx, e.scan(), e.tbl.Schema, []int{0}, minMax)
		}, byRank(grouped), false},
		{"spilling hash aggregate/spill", spill, func(e *strEnv) RowIter {
			return NewSpillingHashAggregate(e.ctx, e.scan(), e.tbl.Schema, []int{0}, minMax)
		}, byRank(grouped), true},
		{"hash aggregate/by key", 0, func(e *strEnv) RowIter {
			return NewHashAggregate(e.ctx, e.scan(), []int{0}, minMax)
		}, byRank(grouped), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newStrEnv(t, n)
			e.ctx.MemoryBudget = c.budget
			got, want := collectRows(c.build(e)), c.want(e)
			if c.anyOrd {
				sort.Slice(got, func(i, j int) bool { return got[i][0].AsString() < got[j][0].AsString() })
			}
			if len(got) != len(want) {
				t.Fatalf("got %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}
