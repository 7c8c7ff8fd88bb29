package exec

import (
	"testing"

	"robustmap/internal/record"
)

func TestCoveringIndexScanMatchesModel(t *testing.T) {
	e := newTestEnv(t, 2003)
	// idx(a,b) covering scan with a range on a and a residual on b
	// (ordinals refer to the index column list: 0 = a, 1 = b).
	lo, hi := []byte(nil), e.ixAB.PrefixFor(record.Int(800))
	s := NewCoveringIndexScan(e.ctx, e.ixAB, lo, hi,
		[]ColPred{{Col: 1, Hi: record.Int(500)}})
	got := Drain(s)
	if want := e.modelCount(800, 500); got != want {
		t.Errorf("covering scan = %d rows, want %d", got, want)
	}
}

func TestCoveringIndexScanEmitsKeyColumns(t *testing.T) {
	e := newTestEnv(t, 503)
	s := NewCoveringIndexScan(e.ctx, e.ixAB, nil, e.ixAB.PrefixFor(record.Int(10)), nil)
	var prev int64 = -1
	for _, row := range collectRows(s) {
		if len(row) != 2 {
			t.Fatalf("covering row has %d columns, want 2", len(row))
		}
		a := row[0].AsInt()
		if a >= 10 || a <= prev {
			t.Fatalf("covering scan a=%d out of range or order (prev %d)", a, prev)
		}
		prev = a
	}
}

func TestCoveringIndexScanRejectsNonCovering(t *testing.T) {
	e := newTestEnv(t, 101)
	e.ixA.Covering = false
	defer func() {
		e.ixA.Covering = true
		if recover() == nil {
			t.Fatal("expected panic for non-covering index")
		}
	}()
	NewCoveringIndexScan(e.ctx, e.ixA, nil, nil, nil)
}

func TestIndexKeyFilterScanMatchesModel(t *testing.T) {
	e := newTestEnv(t, 2003)
	lo, hi := []byte(nil), e.ixAB.PrefixFor(record.Int(900))
	s := NewIndexKeyFilterScan(e.ctx, e.ixAB, lo, hi,
		[]ColPred{{Col: 1, Hi: record.Int(300)}})
	got := DrainRIDs(s)
	if want := e.modelCount(900, 300); got != want {
		t.Errorf("key filter scan = %d RIDs, want %d", got, want)
	}
}

func TestIndexKeyFilterScanNoPredsEqualsRangeScan(t *testing.T) {
	e := newTestEnv(t, 1009)
	lo, hi := []byte(nil), e.ixA.PrefixFor(record.Int(123))
	filtered := DrainRIDs(NewIndexKeyFilterScan(e.ctx, e.ixA, lo, hi, nil))
	plain := DrainRIDs(NewIndexRangeScan(e.ctx, e.ixA, lo, hi))
	if filtered != plain || filtered != 123 {
		t.Errorf("filter=%d plain=%d want 123", filtered, plain)
	}
}

func TestIndexKeyFilterScanRIDsPointAtMatchingRows(t *testing.T) {
	e := newTestEnv(t, 503)
	s := NewIndexKeyFilterScan(e.ctx, e.ixAB, nil, e.ixAB.PrefixFor(record.Int(200)),
		[]ColPred{{Col: 1, Hi: record.Int(100)}})
	for _, rid := range collectRIDs(s) {
		rec, found := e.tbl.Heap.Fetch(rid)
		if !found {
			t.Fatalf("RID %v dangling", rid)
		}
		row, _, err := e.tbl.Schema.Decode(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[1].AsInt() >= 200 || row[2].AsInt() >= 100 {
			t.Fatalf("row (a=%d,b=%d) fails the entry predicates",
				row[1].AsInt(), row[2].AsInt())
		}
	}
}

func TestSpillPolicyString(t *testing.T) {
	if PolicyGraceful.String() != "graceful" || PolicyDegenerate.String() != "degenerate" {
		t.Error("policy names wrong")
	}
	if SpillPolicy(99).String() != "unknown" {
		t.Error("unknown policy name wrong")
	}
}

func TestValueHashCoversTypes(t *testing.T) {
	vals := []record.Value{
		record.Null, record.Int(42), record.Float(2.5), record.String_("xyz"),
		record.Bytes([]byte{1, 2}), record.Date(100), record.Bool(true), record.Bool(false),
	}
	seen := map[uint64][]int{}
	for i, v := range vals {
		h := valueHash(v)
		seen[h] = append(seen[h], i)
	}
	// All eight inputs should hash distinctly (they are tiny and disjoint).
	if len(seen) < 7 {
		t.Errorf("valueHash collides heavily: %v", seen)
	}
	// Determinism.
	for _, v := range vals {
		if valueHash(v) != valueHash(v) {
			t.Error("valueHash nondeterministic")
		}
	}
}
