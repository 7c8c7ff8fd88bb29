package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/service"
	"robustmap/internal/vis"
)

// The workload names are fixed: later issues cite them.
const (
	wlExhaustive = "paper13_exhaustive"
	wlAdaptive   = "paper13_adaptive_p2"
	wlJobmix     = "jobmix_http_store"
	wlFleet      = "paper13_fleet2"
)

// goMaxProcs fixes the scheduler width so a run means the same on a
// 2-core and a 64-core host: every workload keeps at most two
// goroutines busy.
const goMaxProcs = 2

// setupReps is how often a run sets up, so setup_s is a median.
const setupReps = 3

// paperPlans is the two-predicate study: every plan of systems A, B, C.
var paperPlans = []string{
	"A1", "A2", "A3", "A4", "A5", "A6", "A7",
	"B1", "B2", "B3", "B4", "C1", "C2",
}

// sizes scales the workloads. Only -smoke (the tier-1 test) departs
// from full: a result measured at another size is another benchmark.
type sizes struct {
	smoke bool
	// rows and maxExp shape the paper's map.
	rows   int64
	maxExp int
	// The job mix: list length, how far the seed moves a request within
	// its dataset's part of the list, and the ranges its built-in
	// requests draw from.
	jobs         int
	listWindow   int
	jobRows      []int64
	exp2D, exp1D [2]int
	specRows     int64
	// queryExp and joinExp are the axis depths of single-table and join
	// query jobs.
	queryExp, joinExp [2]int
	// The ladder's request, how often each rung runs (the rungs are
	// interleaved, so a disturbed second hits them all alike), and the
	// kernel probes' element count.
	ladderRows   int64
	ladderMaxExp int
	ladderReps   int
	probeN       int
	// logLines are the two measurement-log lengths whose replay the
	// mapstore probe times.
	logLines [2]int
}

var fullSizes = sizes{
	rows: 1 << 17, maxExp: 14,
	jobs: 480, listWindow: 12,
	jobRows: []int64{1 << 13, 1 << 14, 1 << 15}, exp2D: [2]int{5, 8}, exp1D: [2]int{8, 12},
	specRows: 1 << 14, queryExp: [2]int{3, 7}, joinExp: [2]int{4, 12},
	ladderRows: 1 << 13, ladderMaxExp: 7, ladderReps: 5,
	probeN: 1 << 17, logLines: [2]int{10_000, 100_000},
}

var smokeSizes = sizes{
	smoke: true,
	rows:  1 << 12, maxExp: 3,
	jobs: 24, listWindow: 2,
	jobRows: []int64{1 << 11, 1 << 12}, exp2D: [2]int{2, 3}, exp1D: [2]int{3, 4},
	specRows: 1 << 11, queryExp: [2]int{1, 2}, joinExp: [2]int{1, 1},
	ladderRows: 1 << 10, ladderMaxExp: 2, ladderReps: 1,
	probeN: 1 << 11, logLines: [2]int{200, 1000},
}

// paperRequest is the paper's map as a service request.
func paperRequest(sz sizes) service.Request {
	return service.Request{Plans: paperPlans, Rows: sz.rows, MaxExp: sz.maxExp, Grid2D: true}
}

// warmRequest is the smallest job that makes a service build the
// systems paperRequest needs: every plan at the single point 2^0.
func warmRequest(sz sizes) service.Request {
	return service.Request{Plans: paperPlans, Rows: sz.rows, MaxExp: 0, Grid2D: true}
}

// runCtx is what a workload needs to know about the run it is part of.
type runCtx struct {
	ctx  context.Context
	sz   sizes
	seed int64
	// minMeasure is --seconds: repetitions continue until this much has
	// been measured. A repetition is never cut short.
	minMeasure time.Duration
	// tr is nil on an end-to-end run. On a traced run it is switched on
	// for the one traced repetition.
	tr *tracer
	// scratch is a directory of the run's own, removed when it ends.
	scratch string
	// goldens holds the committed digests read so far, by workload.
	goldens map[string]goldenSet
	// record, when set, collects digests in place of checking them
	// (-update-golden).
	record map[string]goldenSet
}

// outcome is what a workload measured.
type outcome struct {
	setups []float64 // seconds per set-up
	reps   []repSample
	cells  []int     // delivered map cells per repetition
	jobs   []float64 // job latencies, ms
	reruns []float64 // latencies of requests answered before, ms
	// attempted and failed count delivered map cells.
	attempted, failed int
	// On a traced run: the untraced and traced repetition, the interval
	// in tracer time whose spans are summarised, the simulated time
	// measured in it, and the layer figures the workload itself can read
	// off its results.
	untraced, traced time.Duration
	from, to         int64
	virtual          time.Duration
	layer            map[string]float64
}

// golden returns a workload's committed digests.
func (rc *runCtx) golden(workload string) (goldenSet, error) {
	if set, ok := rc.goldens[workload]; ok {
		return set, nil
	}
	set, err := loadGolden(workload, rc.sz.smoke)
	if err == nil {
		rc.goldens[workload] = set
	}
	return set, err
}

// check compares a produced map with its committed digest and counts
// its cells as attempted, and as failed when it differs.
func (rc *runCtx) check(out *outcome, workload, label string, cells int, v any) error {
	got, err := digest(v)
	if err != nil {
		return err
	}
	if rc.record != nil {
		if rc.record[workload] == nil {
			rc.record[workload] = goldenSet{}
		}
		rc.record[workload][label] = goldenEntry{digest: got, cells: cells}
		out.attempted += cells
		return nil
	}
	set, err := rc.golden(workload)
	if err != nil {
		return err
	}
	want, ok := set[label]
	if !ok {
		return fmt.Errorf("golden %s has no entry %q", workload, label)
	}
	out.attempted += want.cells
	if got != want.digest || cells != want.cells {
		out.failed += want.cells
		fmt.Fprintf(os.Stderr, "MISMATCH %s %s: got %s (%d cells), golden %s (%d cells)\n",
			workload, label, got, cells, want.digest, want.cells)
	}
	return nil
}

// measure runs rep until minMeasure has been measured (at least once)
// on an end-to-end run, and exactly twice — tracer off, then on — on a
// traced run.
func (rc *runCtx) measure(out *outcome, rep func() (s repSample, cells int, err error)) error {
	one := func() (repSample, error) {
		s, cells, err := rep()
		if err == nil {
			out.reps = append(out.reps, s)
			out.cells = append(out.cells, cells)
		}
		return s, err
	}
	if rc.tr == nil {
		for total := time.Duration(0); len(out.reps) == 0 || total < rc.minMeasure; {
			s, err := one()
			if err != nil {
				return err
			}
			total += s.wall
		}
		return nil
	}
	s, err := one()
	if err != nil {
		return err
	}
	out.untraced = s.wall
	rc.tr.on.Store(true)
	from := rc.tr.offset(time.Now())
	s, err = one()
	// A repetition that times only part of itself (the job mix) has set
	// the interval to that part.
	if out.to == 0 {
		out.from, out.to = from, rc.tr.offset(time.Now())
	}
	rc.tr.on.Store(false)
	out.traced = s.wall
	return err
}

// timed makes a repetition whose whole body is the timed part.
func timed(body func() (cells int, err error)) func() (repSample, int, error) {
	return func() (repSample, int, error) {
		var cells int
		s, err := timeRep(func() (e error) { cells, e = body(); return e })
		return s, cells, err
	}
}

// resolver returns the engine resolver a workload's services measure
// through, wrapped for spans on a traced run.
func (rc *runCtx) resolver() (service.Resolver, *tracingResolver) {
	inner := service.NewEngineResolver(engine.DefaultConfig())
	if rc.tr == nil {
		return inner, nil
	}
	t := &tracingResolver{inner: inner, tr: rc.tr}
	return t, t
}

// runJob submits one request and waits for its decoded result, the way
// a client of the job API does. The latency is what that client sees.
func (rc *runCtx) runJob(svc service.Service, transport string, req service.Request, label string, parent int) (*service.Result, time.Duration, error) {
	t0 := time.Now()
	job := rc.tr.begin("client.job", parent, label)
	traced := job != 0
	s := svc
	if traced {
		s = tracedService{Service: svc, tr: rc.tr, transport: transport, parent: job, job: label}
	}
	id, err := s.Submit(rc.ctx, req)
	if err != nil {
		rc.tr.end(job)
		return nil, time.Since(t0), fmt.Errorf("submit %s: %w", label, err)
	}
	res, err := service.Wait(rc.ctx, s, id, nil)
	lat := time.Since(t0)
	rc.tr.end(job)
	if traced {
		if st, serr := svc.Status(rc.ctx, id); serr == nil {
			stampSpans(rc.tr, st, job, label)
		}
	}
	if err != nil {
		return nil, lat, fmt.Errorf("job %s: %w", label, err)
	}
	return res, lat, nil
}

// resultCells counts the map cells a result delivers (plans × points,
// measured or interpolated) and what the sweeper did to fill them.
func resultCells(res *service.Result) (cells, measured, rounds int) {
	switch {
	case res.Map2D != nil:
		cells = len(res.Map2D.Plans) * len(res.Map2D.TA) * len(res.Map2D.TB)
	case res.Map1D != nil:
		cells = len(res.Map1D.Plans) * len(res.Map1D.Thresholds)
	}
	measured = cells
	switch {
	case res.Mesh2D != nil:
		measured, rounds = res.Mesh2D.MeasuredCells, res.Mesh2D.Rounds
	case res.Mesh1D != nil:
		measured, rounds = res.Mesh1D.MeasuredCells, res.Mesh1D.Rounds
	}
	return cells, measured, rounds
}

// paperLabel labels the paper map's golden entry.
func paperLabel(sz sizes) string {
	return fmt.Sprintf("rows=%d,max_exp=%d", sz.rows, sz.maxExp)
}

// sink keeps analysis and render results alive so the compiler cannot
// drop the calls that produced them.
var sink int

// analyse runs the paper's analyses over a finished map: optimality
// regions with tolerance and every plan's landmarks.
func analyse(m *core.Map2D) {
	om := core.ComputeOptimality(m, core.Tolerance{Relative: 1.05})
	sink += len(om.Optimal)
	for _, id := range m.Plans {
		sink += len(m.LandmarkGrid(id, core.MapLandmarkConfig()))
	}
}

// render draws the winner map (the best plan's cost per cell, in the
// paper's decade colours) in each output format.
func render(m *core.Map2D) {
	bins := core.BinGridAbsolute(m.BestGrid(), core.DefaultAbsoluteBins())
	labels := make([]string, len(m.FracA))
	for i, f := range m.FracA {
		labels[i] = fmt.Sprintf("%.3g", f)
	}
	binLabels := core.DefaultAbsoluteBins().Labels()
	sink += len(vis.HeatMapSVG(bins, vis.PaletteAbsolute, labels, labels, "best plan", "selectivity a", "selectivity b", binLabels))
	sink += len(vis.HeatMapASCII(bins, vis.GlyphsAbsolute, labels, labels, "best plan", "absolute time", binLabels))
	sink += len(vis.HeatMapPPM(bins, vis.PaletteAbsolute, 8))
}

// runExhaustive is paper13_exhaustive: the library used directly.
// Set-up resolves the thirteen plans (building systems A, B and C); a
// repetition sweeps the grid serially, analyses the map and renders it.
func runExhaustive(rc *runCtx) (*outcome, error) {
	out := &outcome{}
	req := paperRequest(rc.sz)
	var rs *service.ResolvedSweep
	for i := 0; i < setupReps; i++ {
		rs = nil // let the previous build go before the next one starts
		t0 := time.Now()
		var err error
		if rs, err = service.NewEngineResolver(engine.DefaultConfig()).Resolve(req); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, seconds(time.Since(t0)))
	}
	var tres *tracingResolver
	if rc.tr != nil {
		tres = &tracingResolver{tr: rc.tr}
	}
	var maps []*core.Map2D
	err := rc.measure(out, timed(func() (int, error) {
		t0 := time.Now()
		sources := rs.Sources
		root := rc.tr.begin("bench.rep", 0, wlExhaustive)
		sweep := rc.tr.begin("core.sweep", root, "")
		if sweep != 0 {
			tres.setParent(sweep)
			sources = tres.wrap(req, sources, "", 0)
		}
		sres, err := core.NewSweep(sources,
			core.Grid2D(rs.Fractions, rs.Fractions, rs.Thresholds, rs.Thresholds)).Run(rc.ctx)
		rc.tr.end(sweep)
		if err != nil {
			return 0, err
		}
		last := sres.Map2D
		maps = append(maps, last)
		id := rc.tr.begin("core.analysis", root, "")
		analyse(last)
		rc.tr.end(id)
		id = rc.tr.begin("vis.render", root, "")
		render(last)
		rc.tr.end(id)
		rc.tr.end(root)
		// The library call is this workload's one job.
		out.jobs = append(out.jobs, millis(time.Since(t0)))
		return len(last.Plans) * len(last.TA) * len(last.TB), nil
	}))
	if err != nil {
		return nil, err
	}
	cells := out.cells[len(out.cells)-1]
	if tres != nil {
		out.virtual = tres.virtualTime()
		out.layer = map[string]float64{"core.measured_cells": float64(cells), "core.total_cells": float64(cells)}
	}
	for _, m := range maps {
		if err := rc.check(out, wlExhaustive, paperLabel(rc.sz), cells, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runAdaptive is paper13_adaptive_p2: the same request with the
// adaptive sweeper at parallelism 2, submitted to an in-process service
// with one job worker, no cache and no store, so every repetition
// measures again.
func runAdaptive(rc *runCtx) (*outcome, error) {
	out := &outcome{}
	var (
		local *service.Local
		tres  *tracingResolver
	)
	closeLocal := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
		defer cancel()
		return local.Close(ctx)
	}
	for i := 0; i < setupReps; i++ {
		if local != nil {
			if err := closeLocal(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var r service.Resolver
		r, tres = rc.resolver()
		local = service.NewLocal(service.LocalConfig{Workers: 1, Resolver: r})
		if _, _, err := rc.runJob(local, "service", warmRequest(rc.sz), "warm", 0); err != nil {
			return nil, errors.Join(err, closeLocal())
		}
		out.setups = append(out.setups, seconds(time.Since(t0)))
	}
	req := paperRequest(rc.sz)
	req.Refine, req.Parallelism = true, 2
	var results []*service.Result
	n := 0
	err := rc.measure(out, timed(func() (int, error) {
		label := fmt.Sprintf("adaptive-%d", n)
		n++
		root := rc.tr.begin("bench.rep", 0, label)
		res, lat, err := rc.runJob(local, "service", req, label, root)
		rc.tr.end(root)
		if err != nil {
			return 0, err
		}
		out.jobs = append(out.jobs, millis(lat))
		results = append(results, res)
		cells, _, _ := resultCells(res)
		return cells, nil
	}))
	err = errors.Join(err, closeLocal())
	if err != nil {
		return nil, err
	}
	cells, measured, rounds := resultCells(results[len(results)-1])
	if tres != nil {
		out.virtual = tres.virtualTime()
		out.layer = map[string]float64{"core.measured_cells": float64(measured),
			"core.total_cells": float64(cells), "core.rounds": float64(rounds)}
	}
	for _, res := range results {
		if err := rc.check(out, wlAdaptive, paperLabel(rc.sz), cells, res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runFleet is paper13_fleet2: paper13_exhaustive's exact request
// submitted over HTTP to a coordinator with two worker daemons. Its map
// must carry paper13_exhaustive's digest.
func runFleet(rc *runCtx) (*outcome, error) {
	out := &outcome{}
	var (
		f     *fleet
		tress []*tracingResolver
	)
	for i := 0; i < setupReps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		tress = nil
		resolvers := make([]service.Resolver, 2)
		for w := range resolvers {
			r, t := rc.resolver()
			resolvers[w] = r
			tress = append(tress, t)
		}
		var err error
		if f, err = startFleet(rc.ctx, resolvers, rc.tr); err != nil {
			return nil, err
		}
		// A one-point job through the coordinator is a single shard and
		// would warm one worker only, so each worker gets its own.
		errs := make([]error, len(f.workers))
		var wg sync.WaitGroup
		for w, d := range f.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[w] = rc.runJob(d.client, "httpapi", warmRequest(rc.sz), fmt.Sprintf("warm-%d", w), 0)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, errors.Join(err, f.close())
		}
		out.setups = append(out.setups, seconds(time.Since(t0)))
	}
	req := paperRequest(rc.sz)
	req.Parallelism = 1
	var results []*service.Result
	n := 0
	err := rc.measure(out, timed(func() (int, error) {
		label := fmt.Sprintf("fleet-%d", n)
		n++
		rc.tr.setJob(label)
		root := rc.tr.begin("bench.rep", 0, label)
		res, lat, err := rc.runJob(f.coord.client, "httpapi", req, label, root)
		rc.tr.end(root)
		if err != nil {
			return 0, err
		}
		out.jobs = append(out.jobs, millis(lat))
		results = append(results, res)
		cells, _, _ := resultCells(res)
		return cells, nil
	}))
	err = errors.Join(err, f.close())
	if err != nil {
		return nil, err
	}
	cells, _, _ := resultCells(results[0])
	if rc.tr != nil {
		for _, t := range tress {
			out.virtual += t.virtualTime()
		}
		out.layer = map[string]float64{"core.measured_cells": float64(cells), "core.total_cells": float64(cells)}
	}
	// The fleet has no golden file of its own: sharded, shipped over
	// HTTP twice and merged, the map must be the one the library
	// computes in process.
	for _, res := range results {
		if err := rc.check(out, wlExhaustive, paperLabel(rc.sz), cells, res.Map2D); err != nil {
			return nil, err
		}
	}
	return out, nil
}
