package exec

import (
	"math/rand"
	"testing"

	"robustmap/internal/record"
	"robustmap/internal/storage"
)

func sortInput(n int, seed int64) (*SliceRows, *record.Schema) {
	sch := record.NewSchema(
		record.Column{Name: "k", Type: record.TypeInt64},
		record.Column{Name: "v", Type: record.TypeString},
	)
	r := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{record.Int(int64(r.Intn(n * 2))), record.String_("payload-string")}
	}
	return &SliceRows{Rows: rows}, sch
}

func collectRows(it RowIter) []Row {
	it.Open()
	defer it.Close()
	return gatherRows(it)
}

func collectRIDs(it RIDIter) []storage.RID {
	it.Open()
	defer it.Close()
	var b ridBuf
	b.gather(it)
	return b.rids
}

func assertSorted(t *testing.T, rows []Row, n int) {
	t.Helper()
	if len(rows) != n {
		t.Fatalf("sorted output has %d rows, want %d", len(rows), n)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].AsInt() > rows[i][0].AsInt() {
			t.Fatalf("output not sorted at %d: %d > %d", i,
				rows[i-1][0].AsInt(), rows[i][0].AsInt())
		}
	}
}

func TestSortInMemory(t *testing.T) {
	e := newTestEnv(t, 101)
	in, sch := sortInput(1000, 1)
	s := NewSort(e.ctx, in, sch, []int{0}, PolicyGraceful)
	assertSorted(t, collectRows(s), 1000)
}

func TestSortEmptyInput(t *testing.T) {
	e := newTestEnv(t, 101)
	in, sch := sortInput(0, 1)
	for _, pol := range []SpillPolicy{PolicyGraceful, PolicyDegenerate} {
		s := NewSort(e.ctx, in, sch, []int{0}, pol)
		if got := collectRows(s); len(got) != 0 {
			t.Errorf("%v: empty sort yielded %d rows", pol, len(got))
		}
	}
}

func TestSortSpillingBothPoliciesCorrect(t *testing.T) {
	e := newTestEnv(t, 101)
	const n = 5000
	_, sch := sortInput(0, 1)
	rowBytes := sch.EncodedSizeEstimate()
	e.ctx.MemoryBudget = int64(rowBytes * 500) // memory for 500 of 5000 rows
	for _, pol := range []SpillPolicy{PolicyGraceful, PolicyDegenerate} {
		in, _ := sortInput(n, 7)
		s := NewSort(e.ctx, in, sch, []int{0}, pol)
		assertSorted(t, collectRows(s), n)
	}
}

func TestSortDuplicateKeysStable(t *testing.T) {
	e := newTestEnv(t, 101)
	sch := record.NewSchema(
		record.Column{Name: "k", Type: record.TypeInt64},
		record.Column{Name: "seq", Type: record.TypeInt64},
	)
	var rows []Row
	for i := int64(0); i < 300; i++ {
		rows = append(rows, Row{record.Int(i % 3), record.Int(i)})
	}
	s := NewSort(e.ctx, &SliceRows{Rows: rows}, sch, []int{0}, PolicyGraceful)
	out := collectRows(s)
	// Within each key group, the original sequence order must be preserved.
	var lastSeq = map[int64]int64{}
	for _, r := range out {
		k, seq := r[0].AsInt(), r[1].AsInt()
		if prev, ok := lastSeq[k]; ok && seq < prev {
			t.Fatalf("stability violated for key %d: %d after %d", k, seq, prev)
		}
		lastSeq[k] = seq
	}
}

func wideSortInput(n int, seed int64) (*SliceRows, *record.Schema) {
	sch := record.NewSchema(
		record.Column{Name: "k", Type: record.TypeInt64},
		record.Column{Name: "v", Type: record.TypeString},
	)
	pad := string(make([]byte, 200))
	r := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{record.Int(int64(r.Intn(n * 2))), record.String_(pad)}
	}
	return &SliceRows{Rows: rows}, sch
}

func TestSortSpillDiscontinuity(t *testing.T) {
	// The §4 experiment: one row over the memory budget makes the
	// degenerate policy spill the ENTIRE input, so its cost jump at the
	// boundary is proportional to the input size; the graceful policy
	// spills only the overflow, so its jump is a small constant (one run
	// write+read). The paper: sorts "lacking graceful degradation will
	// show discontinuous execution costs".
	e := newTestEnv(t, 101)
	_, sch := wideSortInput(0, 1)
	const memRows = 20000
	e.ctx.MemoryBudget = int64(sch.EncodedSizeEstimate()) * memRows

	cost := func(n int, pol SpillPolicy) int64 {
		in, _ := wideSortInput(n, 3)
		e.ctx.Clock.Reset()
		Drain(NewSort(e.ctx, in, sch, []int{0}, pol))
		return int64(e.ctx.Clock.Now())
	}

	below, above := memRows-10, memRows+10
	gBelow, gAbove := cost(below, PolicyGraceful), cost(above, PolicyGraceful)
	dBelow, dAbove := cost(below, PolicyDegenerate), cost(above, PolicyDegenerate)

	jumpG := gAbove - gBelow
	jumpD := dAbove - dBelow
	if jumpD < 5*jumpG {
		t.Errorf("degenerate jump %d not >= 5x graceful jump %d", jumpD, jumpG)
	}
	if ratio := float64(dAbove) / float64(dBelow); ratio < 2.0 {
		t.Errorf("degenerate policy jumps only %.2fx at boundary, want >= 2.0", ratio)
	}
	if ratio := float64(gAbove) / float64(gBelow); ratio > 2.0 {
		t.Errorf("graceful policy jumps %.2fx at boundary, want <= 2.0", ratio)
	}
}

func TestSortSpillCostMonotoneGraceful(t *testing.T) {
	e := newTestEnv(t, 101)
	_, sch := sortInput(0, 1)
	e.ctx.MemoryBudget = int64(sch.EncodedSizeEstimate() * 1000)
	var prev int64
	for _, n := range []int{500, 1000, 1500, 2500, 4000} {
		in, _ := sortInput(n, 5)
		e.ctx.Clock.Reset()
		Drain(NewSort(e.ctx, in, sch, []int{0}, PolicyGraceful))
		cur := int64(e.ctx.Clock.Now())
		if cur < prev {
			t.Errorf("graceful sort cost not monotone: %d rows cost %d < previous %d", n, cur, prev)
		}
		prev = cur
	}
}

func TestSortMultiKeyOrdering(t *testing.T) {
	e := newTestEnv(t, 101)
	sch := record.NewSchema(
		record.Column{Name: "k1", Type: record.TypeInt64},
		record.Column{Name: "k2", Type: record.TypeInt64},
	)
	var rows []Row
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		rows = append(rows, Row{record.Int(int64(r.Intn(5))), record.Int(int64(r.Intn(100)))})
	}
	s := NewSort(e.ctx, &SliceRows{Rows: rows}, sch, []int{0, 1}, PolicyGraceful)
	out := collectRows(s)
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if a[0].AsInt() > b[0].AsInt() ||
			(a[0].AsInt() == b[0].AsInt() && a[1].AsInt() > b[1].AsInt()) {
			t.Fatalf("multi-key order violated at %d", i)
		}
	}
}
