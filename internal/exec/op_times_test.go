package exec

// The operator-time oracle: a table of small operator trees — every
// consumer that pulls its input a row at a time (Sort under both spill
// policies, the four equality joins, the three aggregates) over every
// kind of producer (table scan, covering scan, each fetch over an index
// scan and over a RID intersection, key-filter scan, MDAM, a filtered and
// projected scan) — each run at
// a non-spilling and a spilling memory budget on a cold newTestEnv.
// What is recorded per tree is everything the cost model can observe:
// row count, virtual time, the per-account breakdown, and the device and
// buffer-pool counters. testdata/op_times.json holds those records and
// must not move when the engine's iteration machinery changes; regenerate
// it deliberately with
//
//	go test -run TestOperatorTimesGolden -update ./internal/exec
//
// Limit over a scan is deliberately absent: its time is pinned by
// TestLimitIsDemandExact instead.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"robustmap/internal/iomodel"
	"robustmap/internal/mdam"
	"robustmap/internal/record"
	"robustmap/internal/storage"
)

var updateOpTimes = flag.Bool("update", false, "rewrite testdata/op_times.json from this engine")

// opTimesRows sizes the fixture: several batches of input per producer,
// and (at ~46 estimated bytes per row) far more than opTimesSpillBudget
// holds, so the small budget makes every memory-adaptive operator spill.
const (
	opTimesRows        = 5003
	opTimesSpillBudget = 16 << 10
)

// opSrc is a producer subtree together with the schema of its rows,
// which Sort, the hash join and the spilling aggregate need to spill.
type opSrc struct {
	it     RowIter
	schema *record.Schema
}

var abSchema = record.NewSchema(
	record.Column{Name: "a", Type: record.TypeInt64},
	record.Column{Name: "b", Type: record.TypeInt64},
)

// Table-schema ordinals of the fixture (id, a, b, pad).
const (
	colID = iota
	colA
	colB
	colPad
)

// opProducers builds each native producer kind over the fixture. hi
// bounds the predicate a < hi (and b < hi where a second one applies).
var opProducers = map[string]func(e *env, hi int64) opSrc{
	"scan": func(e *env, hi int64) opSrc {
		return opSrc{NewTableScan(e.ctx, e.tbl, []ColPred{predLess(colA, hi)}), e.tbl.Schema}
	},
	"cover": func(e *env, hi int64) opSrc {
		return opSrc{NewCoveringIndexScan(e.ctx, e.ixAB, nil, e.ixAB.PrefixFor(record.Int(hi)),
			[]ColPred{predLess(1, e.n/2)}), abSchema}
	},
	"mdam": func(e *env, hi int64) opSrc {
		return opSrc{NewMDAMScan(e.ctx, e.ixAB, mdam.LessThan(record.Int(hi)),
			mdam.Range(record.Int(e.n/4), record.Int(e.n/2))), abSchema}
	},
	"trad_ix": func(e *env, hi int64) opSrc {
		return opSrc{NewTraditionalFetch(e.ctx, e.tbl, e.scanA(hi), nil), e.tbl.Schema}
	},
	"improved_ix": func(e *env, hi int64) opSrc {
		return opSrc{NewImprovedFetch(e.ctx, e.tbl, e.scanA(hi), []ColPred{predLess(colB, e.n/2)}, 0), e.tbl.Schema}
	},
	"bitmap_ix": func(e *env, hi int64) opSrc {
		return opSrc{NewBitmapFetch(e.ctx, e.tbl, e.scanA(hi), nil), e.tbl.Schema}
	},
	"trad_merge": func(e *env, hi int64) opSrc {
		return opSrc{NewTraditionalFetch(e.ctx, e.tbl,
			NewRIDMergeIntersect(e.ctx, e.scanA(hi), e.scanB(e.n/2)), nil), e.tbl.Schema}
	},
	"improved_hash": func(e *env, hi int64) opSrc {
		return opSrc{NewImprovedFetch(e.ctx, e.tbl,
			NewRIDHashIntersect(e.ctx, e.scanA(hi), e.scanB(e.n/2)), nil, 0), e.tbl.Schema}
	},
	"bitmap_merge": func(e *env, hi int64) opSrc {
		return opSrc{NewBitmapFetch(e.ctx, e.tbl,
			NewRIDMergeIntersect(e.ctx, e.scanB(e.n/2), e.scanA(hi)), nil), e.tbl.Schema}
	},
	"project(filter(scan))": func(e *env, hi int64) opSrc {
		scan := NewTableScan(e.ctx, e.tbl, []ColPred{predLess(colA, hi)})
		filt := NewFilter(e.ctx, scan, []ColPred{predLess(colB, e.n/2)})
		return opSrc{NewProject(e.ctx, filt, []int{colA, colB}), abSchema}
	},
	"improved_keyfilter": func(e *env, hi int64) opSrc {
		return opSrc{NewImprovedFetch(e.ctx, e.tbl,
			NewIndexKeyFilterScan(e.ctx, e.ixAB, nil, e.ixAB.PrefixFor(record.Int(hi)),
				[]ColPred{predLess(1, e.n/2)}), nil, 0), e.tbl.Schema}
	},
}

// keyCol returns the ordinal of column b in a producer's rows: the sort,
// join and group key of most trees (a permutation of [0, n), so every
// key is distinct and b-order is scattered against every producer's own
// order).
func (s opSrc) keyCol() int { return s.schema.MustOrdinal("b") }

func (s opSrc) sorted(e *env, policy SpillPolicy, keys ...int) opSrc {
	return opSrc{NewSort(e.ctx, s.it, s.schema, keys, policy), s.schema}
}

var opAggs = []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 0}, {Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1}}

// opTrees names each measured tree. Names read consumer/producer.
var opTrees = []struct {
	name  string
	build func(e *env) RowIter
}{
	{"sort_graceful/scan", func(e *env) RowIter {
		s := opProducers["scan"](e, e.n/2)
		return s.sorted(e, PolicyGraceful, s.keyCol()).it
	}},
	{"sort_degenerate/scan", func(e *env) RowIter {
		s := opProducers["scan"](e, e.n/2)
		return s.sorted(e, PolicyDegenerate, s.keyCol()).it
	}},
	{"sort_graceful/cover", func(e *env) RowIter {
		s := opProducers["cover"](e, e.n)
		return s.sorted(e, PolicyGraceful, s.keyCol()).it
	}},
	{"sort_degenerate/improved_ix", func(e *env) RowIter {
		s := opProducers["improved_ix"](e, e.n)
		return s.sorted(e, PolicyDegenerate, s.keyCol()).it
	}},
	{"sort_graceful/trad_ix", func(e *env) RowIter {
		s := opProducers["trad_ix"](e, e.n/3)
		return s.sorted(e, PolicyGraceful, s.keyCol()).it
	}},
	{"sort_graceful/bitmap_merge", func(e *env) RowIter {
		s := opProducers["bitmap_merge"](e, e.n)
		return s.sorted(e, PolicyGraceful, s.keyCol()).it
	}},
	{"sort_degenerate/mdam", func(e *env) RowIter {
		s := opProducers["mdam"](e, e.n)
		return s.sorted(e, PolicyDegenerate, s.keyCol()).it
	}},
	{"sort_graceful/improved_keyfilter", func(e *env) RowIter {
		s := opProducers["improved_keyfilter"](e, e.n)
		return s.sorted(e, PolicyGraceful, s.keyCol()).it
	}},
	{"sort_degenerate/project(filter(scan))", func(e *env) RowIter {
		s := opProducers["project(filter(scan))"](e, e.n)
		return s.sorted(e, PolicyDegenerate, s.keyCol()).it
	}},
	{"merge_join/sort(scan)*cover", func(e *env) RowIter {
		l := opProducers["scan"](e, e.n/2).sorted(e, PolicyGraceful, colA)
		r := opProducers["cover"](e, e.n) // already in a order
		return NewMergeJoinRows(e.ctx, l.it, r.it, []int{colA}, []int{0})
	}},
	{"merge_join/sort(trad_merge)*sort(mdam)", func(e *env) RowIter {
		l := opProducers["trad_merge"](e, e.n)
		r := opProducers["mdam"](e, e.n)
		return NewMergeJoinRows(e.ctx,
			l.sorted(e, PolicyDegenerate, l.keyCol()).it, r.sorted(e, PolicyGraceful, r.keyCol()).it,
			[]int{l.keyCol()}, []int{r.keyCol()})
	}},
	{"hash_join/improved_hash*scan", func(e *env) RowIter {
		b := opProducers["improved_hash"](e, e.n)
		p := opProducers["scan"](e, e.n/2)
		return NewHashJoinRows(e.ctx, b.it, p.it, b.schema, p.schema, []int{colB}, []int{colA})
	}},
	{"hash_join/bitmap_ix*cover", func(e *env) RowIter {
		b := opProducers["bitmap_ix"](e, e.n/2)
		p := opProducers["cover"](e, e.n)
		return NewHashJoinRows(e.ctx, b.it, p.it, b.schema, p.schema, []int{colA}, []int{1})
	}},
	{"nested_loop/trad_ix*mdam", func(e *env) RowIter {
		o := opProducers["trad_ix"](e, 300)
		i := opProducers["mdam"](e, 900)
		return NewNestedLoopJoin(e.ctx, o.it, i.it, []int{colB}, []int{0})
	}},
	{"nested_loop/scan*improved_ix", func(e *env) RowIter {
		o := opProducers["scan"](e, 250)
		i := opProducers["improved_ix"](e, 400)
		return NewNestedLoopJoin(e.ctx, o.it, i.it, []int{colA}, []int{colA})
	}},
	{"index_nlj/scan", func(e *env) RowIter {
		return NewIndexNestedLoopJoin(e.ctx, opProducers["scan"](e, e.n/4).it, e.ixA, colB)
	}},
	{"index_nlj/bitmap_ix", func(e *env) RowIter {
		return NewIndexNestedLoopJoin(e.ctx, opProducers["bitmap_ix"](e, e.n/3).it, e.ixB, colA)
	}},
	{"index_nlj/sort(cover)", func(e *env) RowIter {
		s := opProducers["cover"](e, e.n/2)
		return NewIndexNestedLoopJoin(e.ctx, s.sorted(e, PolicyGraceful, 1).it, e.ixA, 1)
	}},
	{"stream_agg/sort(scan)", func(e *env) RowIter {
		s := opProducers["scan"](e, e.n/2).sorted(e, PolicyGraceful, colB)
		return NewStreamAggregate(e.ctx, s.it, []int{colB}, opAggs)
	}},
	{"stream_agg/cover", func(e *env) RowIter {
		return NewStreamAggregate(e.ctx, opProducers["cover"](e, e.n).it, []int{0}, opAggs)
	}},
	{"spill_agg/scan", func(e *env) RowIter {
		s := opProducers["scan"](e, e.n/2)
		return NewSpillingHashAggregate(e.ctx, s.it, s.schema, []int{colB}, opAggs)
	}},
	{"spill_agg/improved_keyfilter", func(e *env) RowIter {
		s := opProducers["improved_keyfilter"](e, e.n)
		return NewSpillingHashAggregate(e.ctx, s.it, s.schema, []int{colA}, opAggs)
	}},
	{"hash_agg/scan", func(e *env) RowIter {
		return NewHashAggregate(e.ctx, opProducers["scan"](e, e.n/2).it, []int{colB}, opAggs)
	}},
	{"hash_agg/trad_merge", func(e *env) RowIter {
		return NewHashAggregate(e.ctx, opProducers["trad_merge"](e, e.n/2).it, []int{colA}, opAggs)
	}},
	{"hash_agg/mdam", func(e *env) RowIter {
		return NewHashAggregate(e.ctx, opProducers["mdam"](e, e.n).it, []int{1}, opAggs)
	}},
	{"hash_agg/project(filter(scan))", func(e *env) RowIter {
		return NewHashAggregate(e.ctx, opProducers["project(filter(scan))"](e, e.n).it, []int{0}, opAggs)
	}},
	{"limit/sort(scan)", func(e *env) RowIter {
		s := opProducers["scan"](e, e.n/2)
		return NewLimit(s.sorted(e, PolicyGraceful, s.keyCol()).it, 10)
	}},
	{"limit/sort(improved_hash)", func(e *env) RowIter {
		s := opProducers["improved_hash"](e, e.n)
		return NewLimit(s.sorted(e, PolicyDegenerate, s.keyCol()).it, 1500)
	}},
	// Keyed on the string column: the values a consumer retains here are
	// the variable-length ones a producer's batch arena backs.
	{"sort_pad/scan", func(e *env) RowIter {
		return opProducers["scan"](e, e.n/2).sorted(e, PolicyGraceful, colPad, colB).it
	}},
	{"hash_agg_pad/improved_ix", func(e *env) RowIter {
		return NewHashAggregate(e.ctx, opProducers["improved_ix"](e, e.n).it, []int{colPad},
			[]AggSpec{{Kind: AggCount}, {Kind: AggMin, Col: colPad}, {Kind: AggMax, Col: colPad}})
	}},
	{"stream_agg_pad/scan", func(e *env) RowIter {
		return NewStreamAggregate(e.ctx, opProducers["scan"](e, e.n/2).it, []int{colPad},
			[]AggSpec{{Kind: AggSum, Col: colID}, {Kind: AggMin, Col: colPad}, {Kind: AggMax, Col: colB}})
	}},
}

// opTime is one golden record.
type opTime struct {
	Tree     string            `json:"tree"`
	Budget   string            `json:"budget"`
	Rows     int64             `json:"rows"`
	TimeNS   int64             `json:"time_ns"`
	Accounts map[string]int64  `json:"accounts_ns"`
	Device   iomodel.Stats     `json:"device"`
	Pool     storage.PoolStats `json:"pool"`
}

func measureOpTrees(t *testing.T) []opTime {
	var out []opTime
	for _, tree := range opTrees {
		for _, budget := range []struct {
			name  string
			bytes int64
		}{{"mem", 1 << 30}, {"spill", opTimesSpillBudget}} {
			e := newTestEnv(t, opTimesRows)
			e.ctx.MemoryBudget = budget.bytes
			rec := opTime{Tree: tree.name, Budget: budget.name, Accounts: map[string]int64{}}
			rec.Rows = Drain(tree.build(e))
			rec.TimeNS = int64(e.ctx.Clock.Now())
			for acct, d := range e.ctx.Clock.Accounts() {
				rec.Accounts[string(acct)] = int64(d)
			}
			rec.Device = e.ctx.Pool.Device().Stats()
			rec.Pool = e.ctx.Pool.Stats()
			out = append(out, rec)
		}
	}
	return out
}

func TestOperatorTimesGolden(t *testing.T) {
	recs := measureOpTrees(t)
	got, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "op_times.json")
	if *updateOpTimes {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Name the trees that moved rather than dumping two JSON documents.
	var wantRecs []opTime
	if err := json.Unmarshal(want, &wantRecs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("%s holds %d records, the tree table produces %d (rerun with -update)", path, len(wantRecs), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], wantRecs[i]) {
			t.Errorf("%s [%s] drifted:\n got  %+v\n want %+v", recs[i].Tree, recs[i].Budget, recs[i], wantRecs[i])
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the measured records only in formatting (rerun with -update)", path)
	}
}
