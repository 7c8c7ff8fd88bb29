package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/fabric"
	"robustmap/internal/service"
	"robustmap/internal/spec"
)

// Tracing here is done entirely from the benchmark's side of each
// module boundary: the resolver handed to a service is wrapped so every
// Resolve and every PlanSource.Measure is a span, the Service and the
// fabric's Worker handles are wrapped so every submit/watch/result call
// is a span, and a job's queue and run intervals come from the
// JobStatus stamps the service already keeps. Nothing inside the
// program records anything; that is a later change.
//
// A nil *tracer is the untraced run: every method is a no-op and no
// wrapper is installed, so the end-to-end numbers never pay for spans.

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created. Parent is the span that caused this one (0 for a
// root); spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// key and call link spans recorded below a service (which sees only
	// the request) to the job span that caused them; see link.
	key  string
	call int
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0 time.Time
	// on gates recording: a traced run keeps it off through set-up and
	// its untraced repetition, so the two repetitions it compares differ
	// by the recording alone.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	calls int
	// job labels spans that have no job of their own; the single-job
	// workloads set it once per repetition.
	job string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// offset is at in tracer time; 0 on an untraced run.
func (t *tracer) offset(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, job string) int {
	if !t.enabled() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if job == "" {
		job = t.job
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (JobStatus
// stamps).
func (t *tracer) add(s span) int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	if s.Job == "" {
		s.Job = t.job
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) setJob(job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.job = job
	t.mu.Unlock()
}

func (t *tracer) nextCall() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	return t.calls
}

// snapshot links and returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(out)
	return out
}

// link gives the spans recorded under a service their parent, once
// every span is in (a job's run span is only known when it finishes). A
// resolver sees a Request, not a job id, so its resolve span and the
// measure spans of the sources it returned carry the request's archive
// key and a per-Resolve call number instead; the job whose
// "service.run" span has the same key and contains the resolve is the
// one that caused them. (Two identical requests running at the same
// moment may swap parents; every per-layer total is the same either
// way.)
func link(spans []span) {
	runs := map[string][]int{}
	for i := range spans {
		if spans[i].Name == "service.run" && spans[i].key != "" {
			runs[spans[i].key] = append(runs[spans[i].key], i)
		}
	}
	parentOf := map[int]int{} // call → index of the run span
	for i := range spans {
		s := &spans[i]
		if s.Name != "engine.resolve" || s.Parent != 0 {
			continue
		}
		for _, r := range runs[s.key] {
			if spans[r].Start <= s.Start && s.Start <= spans[r].End {
				parentOf[s.call] = r
				break
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.call == 0 {
			continue
		}
		if r, ok := parentOf[s.call]; ok {
			s.Parent, s.Job = spans[r].ID, spans[r].Job
		}
	}
	// A coordinator's dispatches belong to the one job a client was
	// running through it at the time: the run span directly under a
	// client's job span (a worker's run span sits under a shard).
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || layerOf(s.Name) != "fabric" {
			continue
		}
		for r := range spans {
			run := &spans[r]
			if run.Name == "service.run" && run.Parent != 0 && spans[run.Parent-1].Name == "client.job" &&
				run.Start <= s.Start && s.Start <= run.End {
				s.Parent, s.Job = run.ID, run.Job
				break
			}
		}
	}
}

// writeSpans writes the span file: one JSON object holding the spans in
// id order.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Unit  string `json:"time_unit"`
		Spans []span `json:"spans"`
	}{"ns since tracer start", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (their union, so children
// running side by side are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerOf is the module a span's time belongs to: the part of its name
// before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// planFamily groups plans the way the paper's figures do: by the access
// path that dominates their cost. Built-in plans go by id; a plan of a
// workload or query spec goes to "join" when its catalog has several
// tables and to "spec" otherwise.
func planFamily(req service.Request, id string) string {
	switch {
	case req.Workload != nil:
		if req.Workload.Catalog.Multi() {
			return "join"
		}
		return "spec"
	case req.Query != nil:
		if req.Query.Catalog.Multi() {
			return "join"
		}
		return "spec"
	case id == "A1":
		return "tablescan"
	case strings.HasPrefix(id, "A"):
		return "index_fetch"
	case strings.HasPrefix(id, "B"):
		return "bitmap_fetch"
	case strings.HasPrefix(id, "C"):
		return "mdam"
	}
	return "spec"
}

// tracingResolver wraps a service.Resolver so Resolve and every Measure
// of the sources it returns are spans. parent, when non-zero, is the
// span measure calls hang under directly (the in-process sweep of
// paper13_exhaustive, which has no service job to link through).
type tracingResolver struct {
	inner service.Resolver
	tr    *tracer

	mu      sync.Mutex
	parent  int
	virtual time.Duration
}

func (r *tracingResolver) Check(req service.Request) error { return r.inner.Check(req) }

func (r *tracingResolver) Resolve(req service.Request) (*service.ResolvedSweep, error) {
	if !r.tr.enabled() {
		return r.inner.Resolve(req)
	}
	key, call := service.ArchiveKey(req), r.tr.nextCall()
	t0 := time.Now()
	rs, err := r.inner.Resolve(req)
	t1 := time.Now()
	r.tr.add(span{Parent: r.parentSpan(), Name: "engine.resolve", Start: r.tr.offset(t0), End: r.tr.offset(t1), key: key, call: call})
	if err != nil {
		return nil, err
	}
	wrapped := *rs
	wrapped.Sources = r.wrap(req, rs.Sources, key, call)
	return &wrapped, nil
}

// wrap returns sources whose every Measure is a span.
func (r *tracingResolver) wrap(req service.Request, sources []core.PlanSource, key string, call int) []core.PlanSource {
	out := make([]core.PlanSource, len(sources))
	for i, src := range sources {
		name := "exec.measure." + planFamily(req, src.ID)
		measure := src.Measure
		out[i] = core.PlanSource{ID: src.ID, Measure: func(ta, tb int64) core.Measurement {
			t0 := time.Now()
			m := measure(ta, tb)
			t1 := time.Now()
			r.tr.add(span{Parent: r.parentSpan(), Name: name, Start: r.tr.offset(t0), End: r.tr.offset(t1), key: key, call: call})
			r.mu.Lock()
			r.virtual += m.Time
			r.mu.Unlock()
			return m
		}}
	}
	return out
}

func (r *tracingResolver) parentSpan() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parent
}

// virtualTime is the simulated time the traced measurements summed to.
func (r *tracingResolver) virtualTime() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.virtual
}

func (r *tracingResolver) setParent(id int) {
	r.mu.Lock()
	r.parent = id
	r.mu.Unlock()
}

// tracedService wraps a Service for one job: each call is a span under
// the job's span, named after the transport ("service" for a Local,
// "httpapi" for a Client).
type tracedService struct {
	service.Service
	tr        *tracer
	transport string
	parent    int
	job       string
}

func (s tracedService) call(name string, fn func()) {
	id := s.tr.begin(s.transport+"."+name, s.parent, s.job)
	fn()
	s.tr.end(id)
}

func (s tracedService) Submit(ctx context.Context, req service.Request) (id service.JobID, err error) {
	s.call("submit", func() { id, err = s.Service.Submit(ctx, req) })
	return id, err
}

func (s tracedService) Watch(ctx context.Context, id service.JobID) (ch <-chan service.Event, err error) {
	s.call("watch_open", func() { ch, err = s.Service.Watch(ctx, id) })
	return ch, err
}

func (s tracedService) Result(ctx context.Context, id service.JobID) (res *service.Result, err error) {
	s.call("result", func() { res, err = s.Service.Result(ctx, id) })
	return res, err
}

// stampSpans turns a finished job's lifecycle stamps into its queue and
// run spans, under parent.
func stampSpans(tr *tracer, st service.JobStatus, parent int, job string) {
	if !tr.enabled() || st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
		return
	}
	key := service.ArchiveKey(st.Request)
	tr.add(span{Parent: parent, Job: job, Name: "service.queue",
		Start: tr.offset(st.SubmittedAt), End: tr.offset(st.StartedAt)})
	tr.add(span{Parent: parent, Job: job, Name: "service.run",
		Start: tr.offset(st.StartedAt), End: tr.offset(st.FinishedAt), key: key})
}

// tracedWorker wraps the handle a fabric coordinator dispatches
// through: a shard is one span from its submit to its fetched result,
// with the worker-side queue and run intervals below it.
type tracedWorker struct {
	fabric.Worker
	tr *tracer

	mu     sync.Mutex
	shards map[service.JobID]int
}

func newTracedWorker(inner fabric.Worker, tr *tracer) *tracedWorker {
	return &tracedWorker{Worker: inner, tr: tr, shards: map[service.JobID]int{}}
}

func (w *tracedWorker) Submit(ctx context.Context, req service.Request) (service.JobID, error) {
	shard := w.tr.begin("fabric.shard", 0, "")
	sub := w.tr.begin("httpapi.submit", shard, "")
	id, err := w.Worker.Submit(ctx, req)
	w.tr.end(sub)
	if err != nil {
		w.tr.end(shard)
		return id, err
	}
	w.mu.Lock()
	w.shards[id] = shard
	w.mu.Unlock()
	return id, nil
}

func (w *tracedWorker) Result(ctx context.Context, id service.JobID) (*service.Result, error) {
	w.mu.Lock()
	shard := w.shards[id]
	w.mu.Unlock()
	fetch := w.tr.begin("httpapi.result", shard, "")
	res, err := w.Worker.Result(ctx, id)
	w.tr.end(fetch)
	w.tr.end(shard)
	if shard != 0 {
		if st, serr := w.Worker.Status(ctx, id); serr == nil {
			stampSpans(w.tr, st, shard, "")
		}
	}
	return res, err
}

func (w *tracedWorker) PutWorkload(ctx context.Context, ws *spec.WorkloadSpec) error {
	id := w.tr.begin("fabric.spec_ship", 0, "")
	err := w.Worker.PutWorkload(ctx, ws)
	w.tr.end(id)
	return err
}

// traceSummary folds a traced repetition's spans into the per-layer
// metrics that describe what each layer did. Spans outside [from, to]
// (set-up, the untraced repetition) are left out.
func traceSummary(spans []span, from, to int64, virtual time.Duration) map[string]float64 {
	var in []span
	for _, s := range spans {
		if s.Start >= from && s.End <= to {
			in = append(in, s)
		}
	}
	self := selfTimes(in)
	selfBy := map[string]time.Duration{}
	for i, s := range in {
		// A queue span is time a job waited, not time a layer worked;
		// service.queue_ms_p50 reports it.
		if s.Name != "service.queue" {
			selfBy[layerOf(s.Name)] += self[i]
		}
	}
	out := map[string]float64{
		"trace.spans":        float64(len(in)),
		"simclock.virtual_s": seconds(virtual),
		"core.self_s":        seconds(selfBy["core"]),
		"vis.self_s":         seconds(selfBy["vis"]),
		"service.self_s":     seconds(selfBy["service"]),
		"httpapi.self_s":     seconds(selfBy["httpapi"]),
		"fabric.self_s":      seconds(selfBy["fabric"]),
	}
	var cells, submits, queues, runs, shards []float64
	family := map[string]time.Duration{}
	var resolve time.Duration
	resolves, httpCalls := 0, 0
	for _, s := range in {
		switch {
		case strings.HasPrefix(s.Name, "exec.measure."):
			cells = append(cells, millis(s.dur()))
			family[strings.TrimPrefix(s.Name, "exec.measure.")] += s.dur()
		case s.Name == "engine.resolve":
			resolves++
			resolve += s.dur()
		case s.Name == "service.submit" || s.Name == "httpapi.submit":
			submits = append(submits, micros(s.dur()))
		case s.Name == "service.queue":
			queues = append(queues, millis(s.dur()))
		case s.Name == "service.run":
			runs = append(runs, millis(s.dur()))
		case s.Name == "fabric.shard":
			shards = append(shards, seconds(s.dur()))
		}
		if layerOf(s.Name) == "httpapi" {
			httpCalls++
		}
	}
	for _, f := range []string{"tablescan", "index_fetch", "bitmap_fetch", "mdam", "spec", "join"} {
		out["exec.family_s."+f] = seconds(family[f])
	}
	out["exec.cells"] = float64(len(cells))
	out["engine.cell_ms_p50"] = median(cells)
	out["engine.cell_ms_p99"] = percentile(cells, 99)
	_, out["engine.cell_ms_max"] = minMax(cells)
	out["engine.resolves"] = float64(resolves)
	out["engine.resolve_s"] = seconds(resolve)
	out["service.jobs"] = float64(len(runs))
	out["service.submit_us_p50"] = median(submits)
	out["service.queue_ms_p50"] = median(queues)
	out["service.run_ms_p50"] = median(runs)
	out["httpapi.calls"] = float64(httpCalls)
	out["fabric.shards"] = float64(len(shards))
	_, out["fabric.shard_s_max"] = minMax(shards)
	out["fabric.shard_s_mean"], out["fabric.imbalance"] = 0, 0
	if len(shards) > 0 {
		out["fabric.shard_s_mean"] = sum(shards) / float64(len(shards))
		out["fabric.imbalance"] = out["fabric.shard_s_max"] / out["fabric.shard_s_mean"]
	}
	busy := sum(cells) / 1000
	out["core.executor_efficiency"] = busy / (goMaxProcs * seconds(time.Duration(to-from)))
	return out
}
