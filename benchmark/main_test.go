package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun runs one workload at smoke sizes and checks what every run
// must satisfy: outputs match their goldens, exactly the declared
// metrics come out, every name is well formed and every value finite.
func smokeRun(t *testing.T, workload string, trace int, seed int64) *report {
	t.Helper()
	o := options{workload: workload, seed: seed, trace: trace, smoke: true,
		spans: filepath.Join(t.TempDir(), "spans.json")}
	rep, err := runWorkload(o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%d seed=%d: %v", workload, trace, seed, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s trace=%d seed=%d: correct=%v failed=%d attempted=%d",
			workload, trace, seed, rep.Correct, rep.Failed, rep.Attempted)
	}
	decls := endToEndDecls
	if trace == 1 {
		decls = perLayerDecls
	}
	if len(rep.Metrics) != len(decls) {
		t.Errorf("%s trace=%d: %d metrics emitted, %d declared", workload, trace, len(rep.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%d: declared metric %s not emitted", workload, trace, d.Name)
		case !nameRE.MatchString(d.Name):
			t.Errorf("metric name %q is malformed", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s trace=%d: %s = %v", workload, trace, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case trace == 0 && m.Value <= 0:
			t.Errorf("%s trace=0: end-to-end metric %s = %v, want > 0", workload, d.Name, m.Value)
		}
	}
	if trace == 1 {
		if _, err := os.Stat(o.spans); err != nil {
			t.Errorf("%s: span file: %v", workload, err)
		}
	}
	return rep
}

// TestSmoke runs every workload end to end and traced, the job mix on
// a second seed too, and then requires every goroutine the runs started
// to be gone: each stack a workload brings up must be closed and waited
// for.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, w := range workloadDecls {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Fatalf("declared workload %s has no implementation", w.Name)
		}
		smokeRun(t, w.Name, 0, 1)
		smokeRun(t, w.Name, 1, 1)
	}
	if len(workloadFuncs) != len(workloadDecls) {
		t.Errorf("%d workloads implemented, %d declared", len(workloadFuncs), len(workloadDecls))
	}
	smokeRun(t, wlJobmix, 0, 2)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			var buf strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestManifest pins BENCHMARK.json to the declarations the program
// reports by, and the declarations to the manifest format's limits.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, manifest()) {
		t.Error("BENCHMARK.json differs from the declarations in metrics.go; regenerate it with -manifest")
	}
	seen := map[string]bool{}
	for _, w := range workloadDecls {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, d := range append(append([]metricDecl(nil), endToEndDecls...), perLayerDecls...) {
		if seen[d.Name] {
			t.Errorf("name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v is malformed", d)
		}
	}
	for _, d := range endToEndDecls {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower")
	}
	if n := len(perLayerDecls); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// TestJobListIsAPureFunctionOfTheSeed: equal seeds give equal lists,
// another seed another list, and every list holds every catalog request
// plus exactly the repeats.
func TestJobListIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, sz := range []sizes{smokeSizes, fullSizes} {
		catalog := jobCatalog(sz)
		again := jobCatalog(sz)
		for i := range catalog {
			if catalog[i].label != again[i].label {
				t.Fatalf("catalog entry %d differs between two calls: %s, %s", i, catalog[i].label, again[i].label)
			}
		}
		if want := sz.jobs - sz.jobs*repeatPercent/100; len(catalog) != want {
			t.Fatalf("catalog holds %d requests, want %d", len(catalog), want)
		}
		a, b, c := jobList(catalog, sz, 7), jobList(catalog, sz, 7), jobList(catalog, sz, 8)
		if !reflect.DeepEqual(a, b) {
			t.Error("the same seed gave two different lists")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("two seeds gave the same list")
		}
		if len(a) != sz.jobs || len(distinct(a)) != len(catalog) {
			t.Errorf("list of %d with %d distinct, want %d with %d",
				len(a), len(distinct(a)), sz.jobs, len(catalog))
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

// TestSelfTimes: a span's self time is its duration less the union of
// its children's intervals.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "service.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "exec.measure.mdam", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "exec.measure.mdam", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "engine.resolve", Start: 90, End: 120},   // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 30, 30, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
