package main

import (
	"embed"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustmap/internal/service"
	"robustmap/internal/spec"
)

// The spec files are copies of examples/workloads/ taken when the
// benchmark was defined, so editing an example cannot change what the
// benchmark measures.
//
//go:embed specs/*.json
var specFS embed.FS

func mustWorkload(name string) *spec.WorkloadSpec {
	b, err := specFS.ReadFile("specs/" + name)
	if err != nil {
		panic(err)
	}
	ws, err := spec.Parse(b)
	if err != nil {
		panic(fmt.Sprintf("benchmark: embedded spec %s: %v", name, err))
	}
	return ws
}

func mustQuery(name string) *spec.QuerySpec {
	b, err := specFS.ReadFile("specs/" + name)
	if err != nil {
		panic(err)
	}
	q, err := spec.ParseQuery(b)
	if err != nil {
		panic(fmt.Sprintf("benchmark: embedded query %s: %v", name, err))
	}
	return q
}

// catalogEntry is one distinct request of the job mix.
type catalogEntry struct {
	label string
	req   service.Request
}

// onePredPlans are the built-in plans a 1-D sweep accepts: Figure 2's
// single-predicate selection plans.
var onePredPlans = []string{
	"A1", "A2", "F1-trad", "F2-merge-ab", "F2-merge-ba", "F2-hash-ab", "F2-hash-ba",
}

// catalogSeed fixes the catalog. It is not the run's seed: see jobList.
const catalogSeed = 20090104

// jobCatalog is the fixed set of distinct requests every job list is
// drawn from: 70 % of the list length, split over six kinds of job —
// built-in 2-D (the remainder, about 45 %), built-in 1-D (15 %), and
// 10 % each of adaptive 2-D, workload-spec jobs, single-table query
// jobs and join query jobs. It is the same for every seed so that each
// request has a committed digest (any seed's results are checked, not
// just the default's) and so that the work in a list — and with it
// wall_s and allocs_m — does not depend on which requests a seed
// happened to draw.
func jobCatalog(sz sizes) []catalogEntry {
	rng := rand.New(rand.NewSource(catalogSeed))
	between := func(r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }
	somePlans := func(pool []string) []string {
		n := 2 + rng.Intn(3)
		perm := rng.Perm(len(pool))[:n]
		ids := make([]string, n)
		for i, p := range perm {
			ids[i] = pool[p]
		}
		return ids
	}
	jobRows := func() int64 { return sz.jobRows[rng.Intn(len(sz.jobRows))] }

	kinds := []struct {
		name  string
		share int // percent of the distinct requests; 0 takes the rest
		draw  func() service.Request
	}{
		{"builtin2d", 0, func() service.Request {
			return service.Request{Plans: somePlans(paperPlans), Rows: jobRows(), MaxExp: between(sz.exp2D), Grid2D: true}
		}},
		{"builtin1d", 15, func() service.Request {
			return service.Request{Plans: somePlans(onePredPlans), Rows: jobRows(), MaxExp: between(sz.exp1D)}
		}},
		{"refine2d", 10, func() service.Request {
			return service.Request{Plans: somePlans(paperPlans), Rows: jobRows(), MaxExp: between(sz.exp2D), Grid2D: true, Refine: true}
		}},
		// The spec kinds vary what a request may override — rows, axis
		// depth, adaptivity — and the query's costing, never the spec's
		// plans or versioning: a spec's content hash names the systems
		// built for it, so each variant of the spec itself would be one
		// more set of systems, built for a single job.
		{"workload", 10, func() service.Request {
			if rng.Intn(2) == 0 {
				return service.Request{Workload: mustWorkload("skewed.json"), Rows: sz.specRows >> uint(rng.Intn(2)),
					MaxExp: between(sz.exp2D), Refine: rng.Intn(2) == 0}
			}
			return service.Request{Workload: mustWorkload("join_demo.json"),
				MaxExp: between(sz.joinExp), Refine: rng.Intn(2) == 0}
		}},
		{"query", 10, func() service.Request {
			q := mustQuery("skewed_query.json")
			q.Histograms = rng.Intn(2) == 0
			return service.Request{Query: q, Rows: sz.specRows >> uint(rng.Intn(2)),
				MaxExp: between(sz.queryExp), Refine: rng.Intn(2) == 0}
		}},
		{"joinquery", 10, func() service.Request {
			q := mustQuery([]string{"index_advisor_query.json", "join_fkskew_query.json"}[rng.Intn(2)])
			q.Histograms = rng.Intn(2) == 0
			return service.Request{Query: q, MaxExp: between(sz.joinExp)}
		}},
	}

	distinct := sz.jobs - sz.jobs*repeatPercent/100
	rest := distinct
	counts := make([]int, len(kinds))
	for i, k := range kinds {
		if k.share > 0 {
			counts[i] = max(2, distinct*k.share/100)
			rest -= counts[i]
		}
	}
	counts[0] = rest

	var out []catalogEntry
	seen := map[string]bool{}
	for i, k := range kinds {
		for n, tries := 0, 0; n < counts[i]; tries++ {
			if tries > 100*counts[i] {
				panic("benchmark: job kind " + k.name + " has too few distinct requests")
			}
			req := k.draw()
			key := service.ArchiveKey(req)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, catalogEntry{label: fmt.Sprintf("%03d-%s-%s", len(out), k.name, key[:12]), req: req})
			n++
		}
	}
	return out
}

// repeatPercent is the share of list entries that exactly repeat an
// earlier entry.
const repeatPercent = 30

// dataset names the data a request runs on: the row count of the
// built-in table, or a spec's catalog at its row count.
func dataset(req service.Request) string {
	switch {
	case req.Workload != nil:
		return fmt.Sprintf("%s/%d", req.Workload.Name, req.Rows)
	case req.Query != nil:
		return fmt.Sprintf("%s/%d", req.Query.Name, req.Rows)
	}
	return fmt.Sprintf("builtin/%d", req.Rows)
}

// jobList is the run's input, a pure function of the seed: the
// catalog's requests plus the exact repeats (of two equal entries the
// first is the original and the second an archive hit, once the first
// has finished), dataset by dataset, the way someone explores one table
// and then moves on to the next. Which requests repeat, the order of
// the datasets and the base order within each are fixed with the
// catalog; the seed shuffles each dataset's requests within windows of
// sz.listWindow, all but the first. So every seed's list asks for the same
// maps and, in the large, in the same order; what the seed varies is
// which two requests the two clients have in flight together and which
// of two neighbours that share cells measures them.
//
// A dataset's first window stays as it is because the measurement cache
// is cold there: two requests in flight that share cells both measure
// them, so the work in a list would depend on which requests the seed
// put side by side (measured: ±10 % in wall_s and allocs_m by seed,
// ±1.5 % with the first windows fixed).
//
// Keeping each dataset's requests together is what keeps the run
// repeatable. The resolver holds nine built systems, least recently
// used first out, and the mix needs sixteen. With the requests in random
// order, which systems are resident when a job starts depends on how
// the two clients' jobs happened to interleave; a fifth of all jobs
// then rebuild a system they do not measure a single cell on, a
// different fifth each run, and job_ms_p50 — on the edge between those
// jobs and the cheap ones — moves by ±40 % between seeds and ±12 %
// between runs of one seed (README.md has the figures). Dataset by
// dataset, each system is built once, when its dataset's turn comes.
func jobList(catalog []catalogEntry, sz sizes, seed int64) []int {
	n, window := sz.jobs, sz.listWindow
	base := rand.New(rand.NewSource(catalogSeed + 1))
	swap := func(l []int) func(i, j int) { return func(i, j int) { l[i], l[j] = l[j], l[i] } }
	entries := base.Perm(len(catalog))
	entries = append(entries, base.Perm(len(catalog))[:n-len(catalog)]...)
	base.Shuffle(len(entries), swap(entries))

	var datasets []string
	byDataset := map[string][]int{}
	for _, e := range entries {
		d := dataset(catalog[e].req)
		if byDataset[d] == nil {
			datasets = append(datasets, d)
		}
		byDataset[d] = append(byDataset[d], e)
	}
	rng := rand.New(rand.NewSource(seed))
	list := make([]int, 0, n)
	for _, d := range datasets {
		es := byDataset[d]
		for lo := window; lo < len(es); lo += window {
			rng.Shuffle(min(window, len(es)-lo), swap(es[lo:]))
		}
		list = append(list, es...)
	}
	return list
}

// distinct returns list's distinct entries, in order of first
// occurrence.
func distinct(list []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range list {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// rerunPasses is how often Phase B resubmits the distinct requests.
const rerunPasses = 2

// jobClients is the closed loop's width: each client submits its next
// request only once the previous one's result is decoded.
const jobClients = 2

// drain runs the listed requests through svc from jobClients closed-loop
// clients and returns each job's result (nil on failure) and latency.
func (rc *runCtx) drain(svc service.Service, catalog []catalogEntry, list []int, phase string, parent int) ([]*service.Result, []time.Duration) {
	results := make([]*service.Result, len(list))
	lats := make([]time.Duration, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				e := catalog[list[i]]
				res, lat, err := rc.runJob(svc, "httpapi", e.req, fmt.Sprintf("%s%03d", phase, i), parent)
				if err != nil {
					fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", e.label, err)
				}
				results[i], lats[i] = res, lat
			}
		}()
	}
	wg.Wait()
	return results, lats
}

// checkJobs compares every job's result with its request's digest. A
// failed job counts its request's cells as failed.
func (rc *runCtx) checkJobs(out *outcome, catalog []catalogEntry, list []int, results []*service.Result) (cells int, err error) {
	for i, res := range results {
		e := catalog[list[i]]
		if res == nil {
			if rc.record != nil {
				return 0, fmt.Errorf("job %s failed while recording goldens", e.label)
			}
			set, err := rc.golden(wlJobmix)
			if err != nil {
				return 0, err
			}
			out.attempted += set[e.label].cells
			out.failed += set[e.label].cells
			continue
		}
		n, _, _ := resultCells(res)
		cells += n
		if err := rc.check(out, wlJobmix, e.label, n, res); err != nil {
			return 0, err
		}
	}
	return cells, nil
}

// runJobmix is jobmix_http_store: a daemon with a store, driven over
// HTTP by two closed-loop clients.
//
// Phase A (wall_s, job_ms_*): every request of the list against an
// empty store. Then the daemon and its store are closed and brought up
// again on the store Phase A filled — that restart, log replay and
// cache warm-up included, is this workload's setup_s, done setupReps
// times. Phase B (rerun_ms_p50): every distinct request again, now an
// archive hit.
func runJobmix(rc *runCtx) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	catalog := jobCatalog(rc.sz)
	list := jobList(catalog, rc.sz, rc.seed)
	n := 0
	return out, rc.measure(out, func() (s repSample, cells int, err error) {
		root := rc.tr.begin("bench.rep", 0, fmt.Sprintf("jobmix-%d", n))
		defer rc.tr.end(root)
		n++
		dir, err := os.MkdirTemp(rc.scratch, "store-")
		if err != nil {
			return s, 0, err
		}
		defer os.RemoveAll(dir)
		var tres *tracingResolver
		up := func() (*daemon, error) {
			var r service.Resolver
			r, tres = rc.resolver()
			return startDaemon(rc.ctx, service.LocalConfig{Workers: 2, CacheSize: -1, Resolver: r}, dir)
		}
		d, err := up()
		if err != nil {
			return s, 0, err
		}

		var results []*service.Result
		var lats []time.Duration
		from := rc.tr.offset(time.Now())
		s, _ = timeRep(func() error {
			results, lats = rc.drain(d.client, catalog, list, "A", root)
			return nil
		})
		if rc.tr.enabled() {
			// The per-layer figures describe Phase A, the timed part; the
			// restarts and Phase B are in the span file.
			out.from, out.to = from, rc.tr.offset(time.Now())
		}
		st, err := d.local.ServiceStats(rc.ctx)
		virtual := tres.virtualTime()
		if err = errors.Join(err, d.close()); err != nil {
			return s, 0, err
		}
		for _, l := range lats {
			out.jobs = append(out.jobs, millis(l))
		}
		if cells, err = rc.checkJobs(out, catalog, list, results); err != nil {
			return s, 0, err
		}
		// What the sweeper did for the list's distinct requests (a repeat
		// carries its original's mesh and would count it twice).
		measured, total, rounds := 0, 0, 0
		seen := map[int]bool{}
		for i, res := range results {
			if res != nil && !seen[list[i]] {
				seen[list[i]] = true
				c, m, r := resultCells(res)
				total, measured, rounds = total+c, measured+m, rounds+r
			}
		}

		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			id := rc.tr.begin("bench.restart", root, "")
			d, err = up()
			rc.tr.end(id)
			if err != nil {
				return s, 0, err
			}
			out.setups = append(out.setups, seconds(time.Since(t0)))
			if i < setupReps-1 {
				if err := d.close(); err != nil {
					return s, 0, err
				}
			}
		}
		// Every distinct request again, rerunPasses times over: each is
		// an archive hit, and the median of that many sub-millisecond
		// calls needs the count.
		var again []int
		for pass := 0; pass < rerunPasses; pass++ {
			again = append(again, distinct(list)...)
		}
		results, lats = rc.drain(d.client, catalog, again, "B", root)
		stB, err := d.local.ServiceStats(rc.ctx)
		if err = errors.Join(err, d.close()); err != nil {
			return s, 0, err
		}
		for _, l := range lats {
			out.reruns = append(out.reruns, millis(l))
		}
		if _, err := rc.checkJobs(out, catalog, again, results); err != nil {
			return s, 0, err
		}

		if rc.tr.enabled() {
			out.virtual = virtual
			out.layer["core.measured_cells"] = float64(measured)
			out.layer["core.total_cells"] = float64(total)
			out.layer["core.rounds"] = float64(rounds)
			if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
				out.layer["core.cache_hit_frac"] = float64(st.Cache.Hits) / float64(lookups)
			}
			out.layer["mapstore.measure_appends"] = float64(st.Store.MeasureAppends)
			out.layer["mapstore.map_puts"] = float64(st.Store.Maps)
			out.layer["mapstore.map_hits"] = float64(st.Store.MapHits + stB.Store.MapHits)
		}
		return s, cells, nil
	})
}
