package exec

import (
	"testing"

	"robustmap/internal/record"
)

func TestIndexNestedLoopJoinMatchesModel(t *testing.T) {
	e := newTestEnv(t, 1009)
	// Outer: rows keyed by values of column a (each unique in the table).
	var outer []Row
	for _, a := range []int64{0, 5, 99, 500, 1008, 5000 /* no match */} {
		outer = append(outer, Row{record.Int(a), record.Int(a * 10)})
	}
	j := NewIndexNestedLoopJoin(e.ctx, &SliceRows{Rows: outer}, e.ixA, 0)
	seen := 0
	for _, row := range collectRows(j) {
		seen++
		// Output: outer (2 cols) ++ table row (4 cols); the joined table
		// row's a column must equal the outer key.
		if len(row) != 6 {
			t.Fatalf("joined row has %d columns", len(row))
		}
		if row[0].AsInt() != row[3].AsInt() {
			t.Fatalf("join key mismatch: outer %d vs inner a=%d",
				row[0].AsInt(), row[3].AsInt())
		}
	}
	if seen != 5 { // 5 outer keys exist in [0, 1009)
		t.Errorf("joined %d rows, want 5", seen)
	}
}

func TestIndexNestedLoopJoinDuplicateOuters(t *testing.T) {
	e := newTestEnv(t, 503)
	outer := []Row{
		{record.Int(7)}, {record.Int(7)}, {record.Int(7)},
	}
	j := NewIndexNestedLoopJoin(e.ctx, &SliceRows{Rows: outer}, e.ixA, 0)
	if got := Drain(j); got != 3 {
		t.Errorf("duplicate outers joined %d rows, want 3", got)
	}
}

func TestIndexNestedLoopJoinEmptyOuter(t *testing.T) {
	e := newTestEnv(t, 101)
	j := NewIndexNestedLoopJoin(e.ctx, &SliceRows{}, e.ixA, 0)
	if got := Drain(j); got != 0 {
		t.Errorf("empty outer joined %d rows", got)
	}
}

func TestIndexNestedLoopJoinRequiresSingleColumnIndex(t *testing.T) {
	e := newTestEnv(t, 101)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for two-column index")
		}
	}()
	NewIndexNestedLoopJoin(e.ctx, &SliceRows{}, e.ixAB, 0)
}

func TestIndexNestedLoopJoinCostLinearInOuter(t *testing.T) {
	e := newTestEnv(t, 8009)
	cost := func(outerN int64) int64 {
		var outer []Row
		for i := int64(0); i < outerN; i++ {
			outer = append(outer, Row{record.Int((i * 13) % e.n)})
		}
		e.ctx.Pool.FlushAll()
		e.ctx.Clock.Reset()
		Drain(NewIndexNestedLoopJoin(e.ctx, &SliceRows{Rows: outer}, e.ixA, 0))
		return int64(e.ctx.Clock.Now())
	}
	small, large := cost(8), cost(64)
	ratio := float64(large) / float64(small)
	// Each outer row pays ~1 leaf probe + 1 heap fetch (cold-ish): cost
	// grows roughly linearly with the outer size.
	if ratio < 3 || ratio > 12 {
		t.Errorf("8x outer gave %.1fx cost, want roughly linear", ratio)
	}
}
