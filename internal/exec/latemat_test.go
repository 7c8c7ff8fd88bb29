package exec

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// TestCorruptTailOfRejectedRowPanics truncates the last column of one
// stored row and reads the table with a predicate that rejects that row on
// its decoded prefix. The tail is never materialized, but it must still be
// validated: a corrupt record is reported whether or not its row qualifies.
func TestCorruptTailOfRejectedRowPanics(t *testing.T) {
	// Everything that reads stored rows: the table scan and the three
	// fetches, each over every RID of the b index.
	readers := map[string]func(e *env, preds []ColPred) RowIter{
		"table scan": func(e *env, preds []ColPred) RowIter {
			return NewTableScan(e.ctx, e.tbl, preds)
		},
		"traditional fetch": func(e *env, preds []ColPred) RowIter {
			return NewTraditionalFetch(e.ctx, e.tbl, e.scanB(e.n), preds)
		},
		"improved fetch": func(e *env, preds []ColPred) RowIter {
			return NewImprovedFetch(e.ctx, e.tbl, e.scanB(e.n), preds, 0)
		},
		"bitmap fetch": func(e *env, preds []ColPred) RowIter {
			return NewBitmapFetch(e.ctx, e.tbl, e.scanB(e.n), preds)
		},
	}
	for name, reader := range readers {
		t.Run(name, func(t *testing.T) {
			e := newTestEnv(t, 503)
			rid := collectRIDs(e.scanA(1))[0] // the row with a = 0
			rec, ok := e.tbl.Heap.Fetch(rid)
			if !ok {
				t.Fatalf("no row at %v", rid)
			}
			cut := append([]byte(nil), rec[:len(rec)-10]...) // pad announces 100 bytes, 90 follow
			if !e.tbl.Heap.Update(rid, cut) {
				t.Fatal("could not store the truncated record")
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if want := `exec: corrupt row in table t: record: bad string in column "pad"`; msg != want {
					t.Errorf("recovered %q, want %q", msg, want)
				}
			}()
			rows := Drain(reader(e, []ColPred{{Col: colA, Lo: record.Int(1)}})) // a >= 1 rejects the row
			t.Errorf("read %d rows past a truncated record", rows)
		})
	}
}

// TestReopenRestartsMaterializingOperators drains each operator that
// gathers its input before producing — and so keeps cursors, exhaustion
// flags and pooled buffers across calls — twice through Open/Close. The
// second run must see the same rows and cost the same virtual time on the
// same accounts as the first: nothing of the first run may survive Close.
func TestReopenRestartsMaterializingOperators(t *testing.T) {
	type measured struct {
		rows     []Row
		time     time.Duration
		accounts map[simclock.Account]time.Duration
	}
	preds := []ColPred{predLess(colB, 300)}
	ops := map[string]func(e *env) RowIter{
		"traditional fetch": func(e *env) RowIter {
			return NewTraditionalFetch(e.ctx, e.tbl, e.scanA(200), preds)
		},
		"improved fetch": func(e *env) RowIter {
			return NewImprovedFetch(e.ctx, e.tbl, e.scanA(200), preds, 64) // several refills
		},
		"bitmap fetch": func(e *env) RowIter {
			return NewBitmapFetch(e.ctx, e.tbl, e.scanA(200), preds)
		},
		"merge intersect": func(e *env) RowIter {
			return NewImprovedFetch(e.ctx, e.tbl, NewRIDMergeIntersect(e.ctx, e.scanA(200), e.scanB(300)), nil, 0)
		},
		"hash intersect": func(e *env) RowIter {
			return NewImprovedFetch(e.ctx, e.tbl, NewRIDHashIntersect(e.ctx, e.scanA(200), e.scanB(300)), nil, 0)
		},
	}
	for name, build := range ops {
		t.Run(name, func(t *testing.T) {
			e := newTestEnv(t, 503)
			it := build(e)
			run := func() measured {
				e.ctx.Pool.FlushAll()
				e.ctx.Clock.Reset()
				it.Open()
				rows := gatherRows(it)
				it.Close()
				return measured{rows, e.ctx.Clock.Now(), e.ctx.Clock.Accounts()}
			}
			first, second := run(), run()
			if want := e.modelCount(200, 300); int64(len(first.rows)) != want {
				t.Fatalf("first run returned %d rows, want %d", len(first.rows), want)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("second Open/Close run differs from the first:\n first  %d rows, %v, %v\n second %d rows, %v, %v",
					len(first.rows), first.time, first.accounts, len(second.rows), second.time, second.accounts)
			}
		})
	}
}

// TestRowPredsPrefix pins what decodeRow decodes before it evaluates
// anything: the columns up to the last one a predicate reads, or the whole
// row when there is nothing to reject it.
func TestRowPredsPrefix(t *testing.T) {
	e := newTestEnv(t, 11)
	for _, c := range []struct {
		preds []ColPred
		want  int
	}{
		{nil, e.tbl.Schema.NumColumns()},
		{[]ColPred{predLess(colA, 1)}, colA + 1},
		{[]ColPred{predLess(colB, 1), predLess(colA, 1)}, colB + 1},
	} {
		if got := newRowPreds(e.tbl, c.preds).prefix; got != c.want {
			t.Errorf("newRowPreds(%v).prefix = %d, want %d", c.preds, got, c.want)
		}
	}
}
