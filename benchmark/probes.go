package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"robustmap/internal/btree"
	"robustmap/internal/core"
	"robustmap/internal/datagen"
	"robustmap/internal/engine"
	"robustmap/internal/iomodel"
	"robustmap/internal/mapstore"
	"robustmap/internal/optimizer"
	"robustmap/internal/plan"
	"robustmap/internal/record"
	"robustmap/internal/service"
	"robustmap/internal/simclock"
	"robustmap/internal/spec"
	"robustmap/internal/storage"
)

// The probes time one public function of one module over a fixed count
// of operations, outside any workload. They are the bottom of the
// ladder: a change to the kernel shows here first, in the unit it was
// made in, and README.md says which end-to-end metric of which workload
// each should then move.

// medianOf runs fn n times and returns the median duration of one run.
func medianOf(n int, fn func()) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

func probes(rc *runCtx, values map[string]float64) error {
	for _, probe := range []func(*runCtx, map[string]float64) error{
		probeRecord, probeStorage, probeEngine, probeCompile, probeCoreLoop, probeMapstore,
	} {
		if err := probe(rc, values); err != nil {
			return err
		}
	}
	return nil
}

// probeRecord times table generation, then row decoding over the rows
// it generated.
func probeRecord(rc *runCtx, values map[string]float64) error {
	gen := datagen.Spec{Rows: int64(rc.sz.probeN), Seed: 1}
	t0 := time.Now()
	if err := datagen.Generate(gen, func([]record.Value) error { return nil }); err != nil {
		return err
	}
	values["datagen.table_s"] = seconds(time.Since(t0))

	schema := datagen.Schema()
	encoded := make([][]byte, 0, rc.sz.probeN)
	err := datagen.Generate(gen, func(row []record.Value) error {
		b, err := schema.Encode(nil, row)
		encoded = append(encoded, b)
		return err
	})
	if err != nil {
		return err
	}
	var row []record.Value
	t0 = time.Now()
	for _, b := range encoded {
		if row, _, err = schema.Decode(b, row[:0]); err != nil {
			return err
		}
	}
	values["record.decode_ns_per_row"] = float64(time.Since(t0)) / float64(len(encoded))
	return nil
}

// probeStorage times the buffer pool on a resident page and on a page
// it must evict for, and a standalone B-tree's insert and lookup.
func probeStorage(rc *runCtx, values map[string]float64) error {
	const capacity, pages = 64, 256
	clock := simclock.New()
	pool := storage.NewPool(storage.NewDisk(), iomodel.NewDevice(iomodel.DefaultParams(), clock), clock, capacity)
	file := pool.Disk().CreateFile()
	for i := 0; i < pages; i++ {
		pool.Disk().AllocPage(file)
	}
	touch := func(p storage.PageNo) {
		pool.Get(file, p)
		pool.Unpin(file, p)
	}
	// Eight resident pages in turn, so a hit goes through the page index
	// and not the pool's last-page shortcut.
	for p := storage.PageNo(0); p < 8; p++ {
		touch(p)
	}
	n := rc.sz.probeN
	t0 := time.Now()
	for i := 0; i < n; i++ {
		touch(storage.PageNo(i % 8))
	}
	values["storage.pool_hit_ns"] = float64(time.Since(t0)) / float64(n)
	// Four times the capacity in a cycle: every access evicts.
	t0 = time.Now()
	for i := 0; i < n; i++ {
		touch(storage.PageNo(i % pages))
	}
	values["storage.pool_miss_ns"] = float64(time.Since(t0)) / float64(n)

	clock = simclock.New()
	pool = storage.NewPool(storage.NewDisk(), iomodel.NewDevice(iomodel.DefaultParams(), clock), clock, 1<<14)
	tree := btree.New(pool, clock)
	n /= 8 // an insert costs a thousand pool hits
	keys := make([][]byte, n)
	for i := range keys {
		// A multiplicative hash scatters the insert order over the key
		// space; n is a power of two, so the keys stay distinct.
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i)*0x9E3779B97F4A7C15)
	}
	val := []byte("v")
	t0 = time.Now()
	for _, k := range keys {
		if err := tree.Insert(k, val); err != nil {
			return err
		}
	}
	values["btree.insert_ns"] = float64(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := tree.Get(k); !ok {
			return fmt.Errorf("btree probe: inserted key missing")
		}
	}
	values["btree.get_ns"] = float64(time.Since(t0)) / float64(n)
	return nil
}

// probeEngine builds the three systems at the paper map's size, one by
// one, and reads the heap with all three resident.
func probeEngine(rc *runCtx, values map[string]float64) error {
	cfg := engine.DefaultConfig()
	cfg.Rows = rc.sz.rows
	var built []*engine.System
	for _, b := range []struct {
		name  string
		build func(engine.Config) (*engine.System, error)
	}{{"A", engine.SystemA}, {"B", engine.SystemB}, {"C", engine.SystemC}} {
		t0 := time.Now()
		sys, err := b.build(cfg)
		if err != nil {
			return err
		}
		values["engine.build_s."+b.name] = seconds(time.Since(t0))
		built = append(built, sys)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	values["engine.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(built)
	return nil
}

// join3Query is a three-table join over join_demo.json's catalog:
// lineitem up to orders up to customer.
func join3Query() *spec.QuerySpec {
	return &spec.QuerySpec{
		Name:    "join3",
		Catalog: mustWorkload("join_demo.json").Catalog,
		Table:   "lineitem",
		Joins: []spec.JoinSpec{
			{Table: "lineitem", Column: "li_ord"},
			{Table: "orders", Column: "ord_cust"},
		},
		Predicates: []spec.PredSpec{{Column: "lineitem_a", Hi: &spec.ValueSpec{Param: spec.ParamTA}}},
		Sweep:      spec.SweepSpec{MaxExp: 6},
	}
}

// probeCompile times what a job pays before its first measurement:
// parsing a spec, compiling its plans, enumerating a query's candidates
// and costing them.
func probeCompile(rc *runCtx, values map[string]float64) error {
	const reps = 15
	joinDemo, err := specFS.ReadFile("specs/join_demo.json")
	if err != nil {
		return err
	}
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	values["spec.parse_ms.join_demo"] = millis(medianOf(reps, func() {
		_, err := spec.Parse(joinDemo)
		keep(err)
	}))
	paper, join := plan.PaperWorkload(), mustWorkload("join_demo.json")
	values["plan.compile_ms.paper"] = millis(medianOf(reps, func() {
		_, err := plan.CompileWorkload(paper)
		keep(err)
	}))
	values["plan.compile_ms.join"] = millis(medianOf(reps, func() {
		_, err := plan.CompileWorkload(join)
		keep(err)
	}))
	paperQ, joinQ := optimizer.PaperQuery(), join3Query()
	var cands []optimizer.Candidate
	values["optimizer.enumerate_ms.paper"] = millis(medianOf(reps, func() {
		var err error
		cands, err = optimizer.Enumerate(paperQ)
		keep(err)
	}))
	values["optimizer.enumerate_ms.join3"] = millis(medianOf(reps, func() {
		_, err := optimizer.Enumerate(joinQ)
		keep(err)
	}))
	if failed != nil {
		return failed
	}
	model := optimizer.NewModel(paperQ, rc.sz.rows)
	_, thresholds := core.SweepAxis(rc.sz.rows, rc.sz.maxExp)
	t0 := time.Now()
	for _, ta := range thresholds {
		for _, tb := range thresholds {
			sink += len(model.Explain(cands, ta, tb))
		}
	}
	values["optimizer.explain_us"] = micros(time.Since(t0)) / float64(len(thresholds)*len(thresholds))
	return nil
}

// probeCoreLoop sweeps the paper's grid over sources that answer at
// once: what is left is the sweep's own bookkeeping per cell.
func probeCoreLoop(rc *runCtx, values map[string]float64) error {
	sources := make([]core.PlanSource, len(paperPlans))
	for i, id := range paperPlans {
		sources[i] = core.PlanSource{ID: id, Measure: func(ta, tb int64) core.Measurement {
			return core.Measurement{Time: time.Millisecond, Rows: ta}
		}}
	}
	fr, th := core.SweepAxis(rc.sz.rows, rc.sz.maxExp)
	var failed error
	d := medianOf(15, func() {
		if _, err := core.NewSweep(sources, core.Grid2D(fr, fr, th, th)).Run(rc.ctx); err != nil {
			failed = err
		}
	})
	values["core.loop_us_per_cell"] = micros(d) / float64(len(sources)*len(th)*len(th))
	return failed
}

// syntheticResult is a result the size of the paper's map, for probes
// that need a payload and not its meaning.
func syntheticResult(sz sizes) *service.Result {
	fr, th := core.SweepAxis(sz.rows, sz.maxExp)
	m := &core.Map2D{FracA: fr, FracB: fr, TA: th, TB: th, Plans: paperPlans}
	for p := range paperPlans {
		grid := make([][]time.Duration, len(th))
		for i := range grid {
			grid[i] = make([]time.Duration, len(th))
			for j := range grid[i] {
				grid[i][j] = time.Duration((p+1)*(i+1)*(j+1)) * 123457
			}
		}
		m.Times = append(m.Times, grid)
	}
	for i := range th {
		row := make([]int64, len(th))
		for j := range row {
			row[j] = th[i] * th[j] / sz.rows
		}
		m.Rows = append(m.Rows, row)
	}
	return &service.Result{Map2D: m}
}

// probeMapstore times the store's two tiers: measurement appends and the
// replay of a log of two lengths on open, and an archived map's write
// and read.
func probeMapstore(rc *runCtx, values map[string]float64) error {
	dir, err := os.MkdirTemp(rc.scratch, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*mapstore.Store, error) {
		return mapstore.Open(dir, mapstore.Config{EngineVersion: engine.MeasurementVersion, Logf: quiet})
	}
	st, err := open()
	if err != nil {
		return err
	}
	measure := func(st *mapstore.Store) func(ta, tb int64) core.Measurement {
		return st.Wrap("probe", core.PlanSource{ID: "P", Measure: func(ta, tb int64) core.Measurement {
			return core.Measurement{Time: time.Duration(ta + tb), Rows: ta}
		}}).Measure
	}
	small, large := rc.sz.logLines[0], rc.sz.logLines[1]
	m := measure(st)
	t0 := time.Now()
	for i := 0; i < small; i++ {
		m(int64(i), 7)
	}
	values["mapstore.append_us"] = micros(time.Since(t0)) / float64(small)
	if err := st.Close(); err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(dir, "measurements.log"))
	if err != nil {
		return err
	}
	values["mapstore.log_bytes_per_cell"] = float64(info.Size()) / float64(small)

	t0 = time.Now()
	if st, err = open(); err != nil {
		return err
	}
	values["mapstore.open_ms.10k"] = millis(time.Since(t0))
	m = measure(st)
	for i := small; i < large; i++ {
		m(int64(i), 7)
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if st, err = open(); err != nil {
		return err
	}
	values["mapstore.open_ms.100k"] = millis(time.Since(t0))

	payload, err := json.Marshal(syntheticResult(rc.sz))
	if err != nil {
		return err
	}
	scope := mapstore.Scope{Kind: "plans", Plans: paperPlans, Rows: rc.sz.rows, MaxExp: rc.sz.maxExp, Grid2D: true}
	n := 0
	values["mapstore.put_map_ms"] = millis(medianOf(9, func() {
		st.PutMap(fmt.Sprintf("%032x", n), scope, payload)
		n++
	}))
	var missing bool
	values["mapstore.get_map_ms"] = millis(medianOf(9, func() {
		n--
		if _, ok := st.GetMap(fmt.Sprintf("%032x", n)); !ok {
			missing = true
		}
	}))
	if missing {
		return fmt.Errorf("mapstore probe: archived map missing")
	}
	return st.Close()
}
