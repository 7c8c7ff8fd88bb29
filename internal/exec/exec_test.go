package exec

import (
	"testing"

	"robustmap/internal/catalog"
	"robustmap/internal/iomodel"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// env is the shared test fixture: a table t(id, a, b) of n rows where a and
// b are independent permutations of [0, n) (a = i*37 mod n, b = i*61 mod n,
// both coprime with the n values used here), with secondary indexes on a,
// on b, and on (a, b).
type env struct {
	ctx  *Ctx
	tbl  *catalog.Table
	ixA  *catalog.Index
	ixB  *catalog.Index
	ixAB *catalog.Index
	n    int64
}

func newTestEnv(t testing.TB, n int64) *env {
	clock := simclock.New()
	dev := iomodel.NewDevice(iomodel.DefaultParams(), clock)
	pool := storage.NewPool(storage.NewDisk(), dev, clock, 512)
	sch := record.NewSchema(
		record.Column{Name: "id", Type: record.TypeInt64},
		record.Column{Name: "a", Type: record.TypeInt64},
		record.Column{Name: "b", Type: record.TypeInt64},
		record.Column{Name: "pad", Type: record.TypeString},
	)
	tbl := &catalog.Table{Name: "t", Schema: sch, Heap: storage.CreateHeap(pool)}
	pad := record.String_(string(make([]byte, 100))) // realistic ~120-byte rows
	for i := int64(0); i < n; i++ {
		enc, err := sch.Encode(nil, []record.Value{
			record.Int(i), record.Int((i * 37) % n), record.Int((i * 61) % n), pad,
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl.Heap.Append(enc)
	}
	loader := catalog.Loader(pool, clock)
	ixA, err := catalog.BuildIndex("t_a", tbl, loader, true, "a")
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := catalog.BuildIndex("t_b", tbl, loader, true, "b")
	if err != nil {
		t.Fatal(err)
	}
	ixAB, err := catalog.BuildIndex("t_ab", tbl, loader, true, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	clock.Reset()
	return &env{
		ctx: &Ctx{Clock: clock, Pool: pool, MemoryBudget: 1 << 30},
		tbl: tbl, ixA: ixA, ixB: ixB, ixAB: ixAB, n: n,
	}
}

// predLess builds the predicate col < hi on the table schema.
func predLess(col int, hi int64) ColPred {
	return ColPred{Col: col, Hi: record.Int(hi)}
}

// scanA returns an index range scan for a in [0, hi).
func (e *env) scanA(hi int64) *IndexRangeScan {
	return NewIndexRangeScan(e.ctx, e.ixA, nil, e.ixA.PrefixFor(record.Int(hi)))
}

// scanB returns an index range scan for b in [0, hi).
func (e *env) scanB(hi int64) *IndexRangeScan {
	return NewIndexRangeScan(e.ctx, e.ixB, nil, e.ixB.PrefixFor(record.Int(hi)))
}

// modelCount returns the true number of rows with a < ta && b < tb.
func (e *env) modelCount(ta, tb int64) int64 {
	var n int64
	for i := int64(0); i < e.n; i++ {
		if (i*37)%e.n < ta && (i*61)%e.n < tb {
			n++
		}
	}
	return n
}

func TestTableScanCountsAndPredicates(t *testing.T) {
	e := newTestEnv(t, 4001)
	if got := Drain(NewTableScan(e.ctx, e.tbl, nil)); got != e.n {
		t.Errorf("full scan = %d rows, want %d", got, e.n)
	}
	for _, ta := range []int64{0, 1, 100, e.n} {
		got := Drain(NewTableScan(e.ctx, e.tbl, []ColPred{predLess(1, ta)}))
		if got != ta {
			t.Errorf("scan a<%d = %d rows", ta, got)
		}
	}
	// Conjunction.
	got := Drain(NewTableScan(e.ctx, e.tbl, []ColPred{predLess(1, 500), predLess(2, 800)}))
	if want := e.modelCount(500, 800); got != want {
		t.Errorf("conjunctive scan = %d, want %d", got, want)
	}
}

func TestTableScanCostFlatAcrossSelectivity(t *testing.T) {
	e := newTestEnv(t, 4001)
	cost := func(ta int64) int64 {
		e.ctx.Pool.FlushAll()
		e.ctx.Clock.Reset()
		Drain(NewTableScan(e.ctx, e.tbl, []ColPred{predLess(1, ta)}))
		return int64(e.ctx.Clock.Now())
	}
	low := cost(1)
	high := cost(e.n)
	ratio := float64(high) / float64(low)
	if ratio > 1.5 {
		t.Errorf("table scan cost ratio across selectivity = %.2f, want <= 1.5", ratio)
	}
}

func TestIndexRangeScanMatchesModel(t *testing.T) {
	e := newTestEnv(t, 4001)
	for _, ta := range []int64{0, 1, 63, 1024, e.n} {
		it := e.scanA(ta)
		if got := DrainRIDs(it); got != ta {
			t.Errorf("index scan a<%d yielded %d RIDs", ta, got)
		}
	}
}

func TestIndexRangeScanRIDsPointAtMatchingRows(t *testing.T) {
	e := newTestEnv(t, 1009)
	for _, rid := range collectRIDs(e.scanA(50)) {
		rec, found := e.tbl.Heap.Fetch(rid)
		if !found {
			t.Fatalf("RID %v points at nothing", rid)
		}
		row, _, err := e.tbl.Schema.Decode(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[1].AsInt() >= 50 {
			t.Fatalf("RID %v row has a=%d, want < 50", rid, row[1].AsInt())
		}
	}
}

func TestFetchVariantsAgreeWithTableScan(t *testing.T) {
	e := newTestEnv(t, 2003)
	const ta = 300
	want := Drain(NewTableScan(e.ctx, e.tbl, []ColPred{predLess(1, ta)}))

	trad := Drain(NewTraditionalFetch(e.ctx, e.tbl, e.scanA(ta), nil))
	impr := Drain(NewImprovedFetch(e.ctx, e.tbl, e.scanA(ta), nil, 0))
	bmp := Drain(NewBitmapFetch(e.ctx, e.tbl, e.scanA(ta), nil))
	if trad != want || impr != want || bmp != want {
		t.Errorf("fetch counts: traditional=%d improved=%d bitmap=%d want=%d",
			trad, impr, bmp, want)
	}
}

func TestFetchResidualPredicate(t *testing.T) {
	e := newTestEnv(t, 2003)
	const ta, tb = 400, 700
	want := e.modelCount(ta, tb)
	residual := []ColPred{predLess(2, tb)}
	trad := Drain(NewTraditionalFetch(e.ctx, e.tbl, e.scanA(ta), residual))
	impr := Drain(NewImprovedFetch(e.ctx, e.tbl, e.scanA(ta), residual, 0))
	bmp := Drain(NewBitmapFetch(e.ctx, e.tbl, e.scanA(ta), residual))
	if trad != want || impr != want || bmp != want {
		t.Errorf("residual fetch: traditional=%d improved=%d bitmap=%d want=%d",
			trad, impr, bmp, want)
	}
}

func TestImprovedFetchCheaperThanTraditionalAtModerateSelectivity(t *testing.T) {
	e := newTestEnv(t, 8009)
	const ta = 2000 // quarter of the table
	run := func(mk func() RowIter) int64 {
		e.ctx.Pool.FlushAll()
		e.ctx.Clock.Reset()
		Drain(mk())
		return int64(e.ctx.Clock.Now())
	}
	tradCost := run(func() RowIter { return NewTraditionalFetch(e.ctx, e.tbl, e.scanA(ta), nil) })
	imprCost := run(func() RowIter { return NewImprovedFetch(e.ctx, e.tbl, e.scanA(ta), nil, 0) })
	if imprCost*3 > tradCost {
		t.Errorf("improved fetch %d not ≥3x cheaper than traditional %d", imprCost, tradCost)
	}
}

func TestImprovedFetchSmallBatchesCostMore(t *testing.T) {
	// Page revisits across batches: the non-robustness at very large
	// results the paper observes in Figure 1.
	e := newTestEnv(t, 8009)
	run := func(batch int) int64 {
		e.ctx.Pool.FlushAll()
		e.ctx.Clock.Reset()
		Drain(NewImprovedFetch(e.ctx, e.tbl, e.scanA(e.n), nil, batch))
		return int64(e.ctx.Clock.Now())
	}
	oneBatch := run(int(e.n))
	tenBatches := run(int(e.n / 10))
	if tenBatches <= oneBatch {
		t.Errorf("10-batch fetch %d not costlier than 1-batch %d", tenBatches, oneBatch)
	}
}

func TestBitmapFetchDeduplicatesRIDs(t *testing.T) {
	e := newTestEnv(t, 503)
	// Feed each RID twice via a concatenating iterator.
	double := &concatRIDs{a: e.scanA(100), b: e.scanA(100)}
	got := Drain(NewBitmapFetch(e.ctx, e.tbl, double, nil))
	if got != 100 {
		t.Errorf("bitmap fetch with duplicate input = %d rows, want 100", got)
	}
}

type concatRIDs struct {
	a, b RIDIter
	onB  bool
}

func (c *concatRIDs) Open() {
	c.a.Open()
	c.b.Open()
}

func (c *concatRIDs) NextRIDBatch(max int) ([]storage.RID, bool) {
	if !c.onB {
		if rids, ok := c.a.NextRIDBatch(max); ok {
			return rids, true
		}
		c.onB = true
	}
	return c.b.NextRIDBatch(max)
}

func (c *concatRIDs) Close() {
	c.a.Close()
	c.b.Close()
}

func TestRIDIntersectionsMatchModel(t *testing.T) {
	e := newTestEnv(t, 2003)
	cases := []struct{ ta, tb int64 }{
		{0, 0}, {1, e.n}, {e.n, 1}, {100, 100}, {500, 1500}, {e.n, e.n},
	}
	for _, c := range cases {
		want := e.modelCount(c.ta, c.tb)
		merge := DrainRIDs(NewRIDMergeIntersect(e.ctx, e.scanA(c.ta), e.scanB(c.tb)))
		hashAB := DrainRIDs(NewRIDHashIntersect(e.ctx, e.scanA(c.ta), e.scanB(c.tb)))
		hashBA := DrainRIDs(NewRIDHashIntersect(e.ctx, e.scanB(c.tb), e.scanA(c.ta)))
		if merge != want || hashAB != want || hashBA != want {
			t.Errorf("(ta=%d,tb=%d): merge=%d hashAB=%d hashBA=%d want=%d",
				c.ta, c.tb, merge, hashAB, hashBA, want)
		}
	}
}

func TestRIDMergeEmitsSortedOrder(t *testing.T) {
	e := newTestEnv(t, 1009)
	var prev storage.RID
	first := true
	for _, rid := range collectRIDs(NewRIDMergeIntersect(e.ctx, e.scanA(400), e.scanB(400))) {
		if !first && !prev.Less(rid) {
			t.Fatalf("merge output out of order: %v then %v", prev, rid)
		}
		prev, first = rid, false
	}
}

func TestRIDMergeSymmetricCost(t *testing.T) {
	e := newTestEnv(t, 4001)
	cost := func(mk func() RIDIter) int64 {
		e.ctx.Pool.FlushAll()
		e.ctx.Clock.Reset()
		DrainRIDs(mk())
		return int64(e.ctx.Clock.Now())
	}
	ab := cost(func() RIDIter { return NewRIDMergeIntersect(e.ctx, e.scanA(100), e.scanB(3000)) })
	ba := cost(func() RIDIter { return NewRIDMergeIntersect(e.ctx, e.scanB(3000), e.scanA(100)) })
	diff := float64(ab-ba) / float64(ab)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05 {
		t.Errorf("merge intersect asymmetric: ab=%d ba=%d (%.1f%%)", ab, ba, diff*100)
	}
}

func TestRIDHashAsymmetricCostUnderMemoryPressure(t *testing.T) {
	// Building on the small side fits in memory; building on the large side
	// forces grace partitioning through disk — the asymmetry the paper
	// contrasts with Figure 5's symmetry.
	e := newTestEnv(t, 4001)
	e.ctx.MemoryBudget = 1024 * RIDMemBytes // room for 1024 buffered RIDs
	cost := func(mk func() RIDIter) int64 {
		e.ctx.Pool.FlushAll()
		e.ctx.Clock.Reset()
		DrainRIDs(mk())
		return int64(e.ctx.Clock.Now())
	}
	smallBuild := cost(func() RIDIter { return NewRIDHashIntersect(e.ctx, e.scanA(50), e.scanB(3500)) })
	largeBuild := cost(func() RIDIter { return NewRIDHashIntersect(e.ctx, e.scanB(3500), e.scanA(50)) })
	if smallBuild >= largeBuild {
		t.Errorf("hash intersect small-build %d not cheaper than large-build %d",
			smallBuild, largeBuild)
	}
	// Correctness is unaffected by spilling.
	e.ctx.MemoryBudget = 256 * RIDMemBytes
	got := DrainRIDs(NewRIDHashIntersect(e.ctx, e.scanB(3500), e.scanA(50)))
	if want := e.modelCount(50, 3500); got != want {
		t.Errorf("spilling hash intersect = %d, want %d", got, want)
	}
}
