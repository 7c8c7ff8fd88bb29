package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/fabric"
	"robustmap/internal/httpapi"
	"robustmap/internal/plan"
	"robustmap/internal/service"
)

// The ladder sends one fixed request — the thirteen plans on a small
// 2-D grid — up through the layers one rung at a time: swept directly,
// through the in-process service, through a daemon over HTTP, through
// a coordinator with one worker, and with two. Every rung measures on
// the same three built systems, so two adjacent rungs differ by exactly
// the layer between them and their difference is that layer's overhead.
// The request is small on purpose: an overhead of milliseconds cannot
// be read off a base of twenty seconds whose own noise is larger.

// ladderSystems holds the ladder's systems and counts what the direct
// rung's measurements did to the buffer pool and the device.
type ladderSystems struct {
	byName map[string]*engine.System

	mu       sync.Mutex
	counting bool
	pool     struct{ hits, misses, evictions int64 }
	dev      struct{ random, sequential, pages int64 }
}

func buildLadderSystems(rows int64) (*ladderSystems, error) {
	cfg := engine.DefaultConfig()
	cfg.Rows = rows
	ls := &ladderSystems{byName: map[string]*engine.System{}}
	for name, build := range map[string]func(engine.Config) (*engine.System, error){
		"A": engine.SystemA, "B": engine.SystemB, "C": engine.SystemC,
	} {
		sys, err := build(cfg)
		if err != nil {
			return nil, err
		}
		ls.byName[name] = sys
	}
	return ls, nil
}

// Check implements service.Resolver.
func (ls *ladderSystems) Check(req service.Request) error { return req.Validate() }

// Resolve implements service.Resolver for built-in plan requests at the
// ladder's row count, the way service.EngineResolver does but on
// systems the benchmark holds (so their engine.Result is in reach).
func (ls *ladderSystems) Resolve(req service.Request) (*service.ResolvedSweep, error) {
	rs := &service.ResolvedSweep{}
	rs.Fractions, rs.Thresholds = core.SweepAxis(req.Rows, req.MaxExp)
	all := plan.AllPlans()
	for _, id := range req.Plans {
		p := plan.ByID(all, id)
		sys := ls.byName[p.System]
		rs.Sources = append(rs.Sources, core.PlanSource{ID: id, Measure: func(ta, tb int64) core.Measurement {
			res := sys.RunShared(p, plan.Query{TA: ta, TB: tb})
			ls.mu.Lock()
			if ls.counting {
				ls.pool.hits += res.Pool.Hits
				ls.pool.misses += res.Pool.Misses
				ls.pool.evictions += res.Pool.Evictions
				ls.dev.random += res.Device.RandomReads
				ls.dev.sequential += res.Device.SequentialReads
				ls.dev.pages += res.Device.PagesRead
			}
			ls.mu.Unlock()
			return core.Measurement{Time: res.Time, Rows: res.Rows}
		}})
		rs.Scopes = append(rs.Scopes, fmt.Sprintf("%s/%d", p.System, req.Rows))
	}
	return rs, nil
}

// lookupSources serves a finished map's cells back as plan sources, so
// a sweep over them costs only what the sweeper itself does.
func lookupSources(m *core.Map2D) []core.PlanSource {
	index := make(map[int64]int, len(m.TA))
	for i, t := range m.TA {
		index[t] = i
	}
	out := make([]core.PlanSource, len(m.Plans))
	for p, id := range m.Plans {
		out[p] = core.PlanSource{ID: id, Measure: func(ta, tb int64) core.Measurement {
			i, j := index[ta], index[tb]
			return core.Measurement{Time: m.Times[p][i][j], Rows: m.Rows[i][j]}
		}}
	}
	return out
}

func ladder(rc *runCtx, values map[string]float64) error {
	ctx := rc.ctx
	req := service.Request{Plans: paperPlans, Rows: rc.sz.ladderRows, MaxExp: rc.sz.ladderMaxExp, Grid2D: true}
	ls, err := buildLadderSystems(req.Rows)
	if err != nil {
		return err
	}
	// The rungs' jobs are not traced: the ladder compares layers by
	// their end-to-end cost, as a client sees it.
	plain := *rc
	plain.tr = nil

	// Every rung's stack is up before the first rung runs and closed,
	// and waited for, after the last.
	var closers []func() error
	closeAll := func() error {
		var err error
		for i := len(closers) - 1; i >= 0; i-- {
			err = errors.Join(err, closers[i]())
		}
		return err
	}
	local := service.NewLocal(service.LocalConfig{Workers: 1, Resolver: ls})
	closers = append(closers, func() error {
		cctx, cancel := context.WithTimeout(context.Background(), closeGrace)
		defer cancel()
		return local.Close(cctx)
	})
	httpd, err := startDaemon(ctx, service.LocalConfig{Workers: 1, Resolver: ls}, "")
	if err != nil {
		return errors.Join(err, closeAll())
	}
	closers = append(closers, httpd.close)
	fleets := make([]*fleet, 2)
	for i := range fleets {
		workers := []service.Resolver{ls, ls}[:i+1]
		if fleets[i], err = startFleet(ctx, workers, nil); err != nil {
			return errors.Join(err, closeAll())
		}
		closers = append(closers, fleets[i].close)
	}
	return errors.Join(ladderRungs(&plain, ls, req, local, httpd, fleets, values), closeAll())
}

// ladderRungs runs the rungs on stacks its caller owns.
func ladderRungs(rc *runCtx, ls *ladderSystems, req service.Request, local *service.Local,
	httpd *daemon, fleets []*fleet, values map[string]float64) error {

	ctx := rc.ctx
	rs, err := ls.Resolve(req)
	if err != nil {
		return err
	}
	var direct *core.Map2D
	rungs := []struct {
		name string
		run  func() error
	}{
		{"core.direct_s", func() error {
			res, err := core.NewSweep(rs.Sources, core.Grid2D(rs.Fractions, rs.Fractions, rs.Thresholds, rs.Thresholds)).Run(ctx)
			if err == nil {
				direct = res.Map2D
			}
			return err
		}},
		{"service.job_s", func() error {
			_, _, err := rc.runJob(local, "service", req, "ladder", 0)
			return err
		}},
		{"httpapi.job_s", func() error {
			_, _, err := rc.runJob(httpd.client, "httpapi", req, "ladder", 0)
			return err
		}},
		{"fabric.job_s.w1", func() error {
			_, _, err := rc.runJob(fleets[0].coord.client, "httpapi", req, "ladder", 0)
			return err
		}},
		{"fabric.job_s.w2", func() error {
			_, _, err := rc.runJob(fleets[1].coord.client, "httpapi", req, "ladder", 0)
			return err
		}},
	}
	took := map[string][]float64{}
	for rep := 0; rep < rc.sz.ladderReps; rep++ {
		for i, rung := range rungs {
			// The first direct sweep doubles as the count of what the
			// request does to the simulated pool and device.
			ls.mu.Lock()
			ls.counting = rep == 0 && i == 0
			ls.mu.Unlock()
			t0 := time.Now()
			if err := rung.run(); err != nil {
				return fmt.Errorf("%s: %w", rung.name, err)
			}
			took[rung.name] = append(took[rung.name], seconds(time.Since(t0)))
		}
	}
	for _, rung := range rungs {
		values[rung.name] = median(took[rung.name])
	}
	values["service.overhead_ms"] = (values["service.job_s"] - values["core.direct_s"]) * 1000
	values["httpapi.overhead_ms"] = (values["httpapi.job_s"] - values["service.job_s"]) * 1000
	values["fabric.overhead_ms.w1"] = (values["fabric.job_s.w1"] - values["service.job_s"]) * 1000
	values["fabric.speedup.w2"] = values["fabric.job_s.w1"] / values["fabric.job_s.w2"]
	values["storage.pool_hits"] = float64(ls.pool.hits)
	values["storage.pool_misses"] = float64(ls.pool.misses)
	values["storage.pool_evictions"] = float64(ls.pool.evictions)
	values["iomodel.random_reads"] = float64(ls.dev.random)
	values["iomodel.sequential_reads"] = float64(ls.dev.sequential)
	values["iomodel.pages_read"] = float64(ls.dev.pages)

	// What the analyses, the renderer and the adaptive sweeper cost on
	// the map the direct rung produced.
	values["core.analysis_ms"] = millis(medianOf(5, func() { analyse(direct) }))
	values["vis.render_ms"] = millis(medianOf(5, func() { render(direct) }))
	served := lookupSources(direct)
	var failed error
	values["core.adaptive_self_ms"] = millis(medianOf(5, func() {
		_, err := core.NewSweep(served,
			core.Grid2D(direct.FracA, direct.FracB, direct.TA, direct.TB),
			core.WithAdaptive(core.DefaultAdaptiveConfig())).Run(ctx)
		if err != nil {
			failed = err
		}
	}))
	if failed != nil {
		return failed
	}
	if err := ladderHTTP(ctx, httpd.client, req, values); err != nil {
		return err
	}
	return ladderShards(ctx, rc, fleets[0].workers[0].client, req, values)
}

// ladderHTTP times the transport alone: a health round trip, and
// fetching a finished job's result.
func ladderHTTP(ctx context.Context, c *httpapi.Client, req service.Request, values map[string]float64) error {
	var failed error
	rtts := make([]float64, 200)
	for i := range rtts {
		t0 := time.Now()
		if err := c.Health(ctx); err != nil {
			return err
		}
		rtts[i] = micros(time.Since(t0))
	}
	values["httpapi.rtt_us_p50"] = median(rtts)
	id, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	res, err := service.Wait(ctx, c, id, nil)
	if err != nil {
		return err
	}
	values["httpapi.result_fetch_ms"] = millis(medianOf(5, func() {
		if _, err := c.Result(ctx, id); err != nil {
			failed = err
		}
	}))
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	values["httpapi.result_bytes"] = float64(len(body))
	return failed
}

// ladderShards runs the request's four shards one after another on one
// worker, which shows how evenly Partition splits the work when nothing
// else disturbs the shards, then merges them and ships a spec.
func ladderShards(ctx context.Context, rc *runCtx, w *httpapi.Client, req service.Request, values map[string]float64) error {
	var parts []*service.Result
	var took []float64
	for _, sh := range fabric.Partition(req.MaxExp+1, 4) {
		shard := req
		shard.Shard = &service.Shard{Lo: sh.Lo, Hi: sh.Hi}
		res, lat, err := rc.runJob(w, "httpapi", shard, "shard", 0)
		if err != nil {
			return err
		}
		parts = append(parts, res)
		took = append(took, seconds(lat))
	}
	_, values["fabric.ladder_shard_s_max"] = minMax(took)
	values["fabric.ladder_shard_s_mean"] = sum(took) / float64(len(took))
	values["fabric.ladder_imbalance"] = values["fabric.ladder_shard_s_max"] / values["fabric.ladder_shard_s_mean"]
	var failed error
	values["fabric.merge_ms"] = millis(medianOf(5, func() {
		if _, err := fabric.Merge(parts); err != nil {
			failed = err
		}
	}))
	paper := plan.PaperWorkload()
	values["fabric.spec_ship_ms"] = millis(medianOf(5, func() {
		if err := w.PutWorkload(ctx, paper); err != nil {
			failed = err
		}
	}))
	return failed
}
