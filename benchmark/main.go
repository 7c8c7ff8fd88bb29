// Command benchmark is the repository's yardstick: four workloads that
// each produce robustness maps the way a user of this system would,
// eight end-to-end metrics per workload, and — in a separate traced run
// — the per-layer figures that say where the time went. BENCHMARK.json
// declares all of it; README.md explains the choices.
//
//	bash benchmark/run.sh --workload paper13_exhaustive --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                    # every workload, 3 rounds, a table
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	spans        string
	smoke        bool
	rounds       int
	updateGolden bool
	manifest     bool
}

var workloadFuncs = map[string]func(*runCtx) (*outcome, error){
	wlExhaustive: runExhaustive,
	wlAdaptive:   runAdaptive,
	wlJobmix:     runJobmix,
	wlFleet:      runFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload for -rounds rounds, each run in its own process")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measure for at least this long; a repetition is never cut short")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default: robustbench-spans-<workload>.json in the temp directory)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for the test suite; the numbers mean nothing")
	fs.IntVar(&o.rounds, "rounds", 3, "rounds of the all-workloads mode; round r uses seed+r")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the committed digests under "+goldenDir+" from this build's outputs")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	var err error
	switch {
	case o.manifest:
		_, err = stdout.Write(manifest())
	case o.updateGolden:
		err = updateGolden(o, stderr)
	case o.workload == "":
		err = runRounds(o, stdout, stderr)
	default:
		var rep *report
		if rep, err = runWorkload(o, stdout); err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// newRunCtx prepares one in-process run: scheduler width, scratch
// directory, golden files. The returned func removes the scratch.
func newRunCtx(o options) (*runCtx, func(), error) {
	runtime.GOMAXPROCS(goMaxProcs)
	scratch, err := os.MkdirTemp("", "robustbench-")
	if err != nil {
		return nil, nil, err
	}
	rc := &runCtx{
		ctx:        context.Background(),
		sz:         fullSizes,
		seed:       o.seed,
		minMeasure: time.Duration(o.seconds * float64(time.Second)),
		scratch:    scratch,
		goldens:    map[string]goldenSet{},
	}
	if o.smoke {
		rc.sz = smokeSizes
	}
	return rc, func() { os.RemoveAll(scratch) }, nil
}

// runWorkload is one run of one workload in this process.
func runWorkload(o options, stdout io.Writer) (*report, error) {
	fn, ok := workloadFuncs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rc, cleanup, err := newRunCtx(o)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	// The golden files are read before anything is measured: a run that
	// could not check its outputs must fail in a second, not in a minute.
	golden := o.workload
	if golden == wlFleet {
		golden = wlExhaustive
	}
	if _, err := rc.golden(golden); err != nil {
		return nil, err
	}
	calib := calibrate()
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %d  nproc %d  gomaxprocs %d  calib_ms %.1f\n",
		o.workload, o.seed, o.trace, runtime.NumCPU(), goMaxProcs, millis(calib))
	if o.trace == 1 {
		rc.tr = newTracer()
	}
	out, err := fn(rc)
	if err != nil {
		return nil, err
	}
	var (
		values map[string]float64
		decls  = endToEndDecls
	)
	if o.trace == 0 {
		values = endToEnd(out, stdout)
	} else {
		decls = perLayerDecls
		path := o.spans
		if path == "" {
			path = filepath.Join(os.TempDir(), "robustbench-spans-"+o.workload+".json")
		}
		if values, err = perLayer(rc, out, calib, path); err != nil {
			return nil, err
		}
		for _, d := range decls {
			fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	fmt.Fprintf(stdout, "failed_frac %g (%d of %d map cells)\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	return &report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   withUnits(decls, values),
	}, nil
}

// endToEnd folds an outcome into the end-to-end metrics and prints each
// with its sample count and range.
func endToEnd(out *outcome, w io.Writer) map[string]float64 {
	var walls, rates, mallocs, bytes []float64
	for i, r := range out.reps {
		walls = append(walls, seconds(r.wall))
		rates = append(rates, float64(out.cells[i])/seconds(r.wall))
		mallocs = append(mallocs, float64(r.mallocs)/1e6)
		bytes = append(bytes, float64(r.bytes)/(1<<20))
	}
	// Fewer than ten jobs have no tail to report: a p90 of two or three
	// repetitions would be their maximum, the noisiest number of the run.
	p90 := percentile(out.jobs, 90)
	if len(out.jobs) < 10 {
		p90 = median(out.jobs)
	}
	// Without a cache or a store an answered request costs a full job
	// again, and every repetition asks for what the warm-up or the
	// repetition before it asked.
	reruns := out.reruns
	if len(reruns) == 0 {
		reruns = out.jobs
	}
	values := map[string]float64{}
	line := func(name string, v float64, xs []float64) {
		values[name] = v
		lo, hi := minMax(xs)
		fmt.Fprintf(w, "%-14s %14.6g  n=%d min %.6g max %.6g\n", name, v, len(xs), lo, hi)
	}
	line("setup_s", median(out.setups), out.setups)
	line("wall_s", median(walls), walls)
	line("cells_per_s", median(rates), rates)
	line("job_ms_p50", median(out.jobs), out.jobs)
	line("job_ms_p90", p90, out.jobs)
	line("rerun_ms_p50", median(reruns), reruns)
	line("allocs_m", median(mallocs), mallocs)
	line("alloc_mb", median(bytes), bytes)
	return values
}

// perLayer assembles the per-layer metrics of a traced run: the fixed
// probes and the ladder (the same in every workload's run), what the
// spans say each layer did during this workload's traced repetition,
// and what the workload read off its own results.
func perLayer(rc *runCtx, out *outcome, calib time.Duration, spanPath string) (map[string]float64, error) {
	spans := rc.tr.snapshot()
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, err
	}
	values := map[string]float64{
		"core.measured_cells": 0, "core.total_cells": 0, "core.rounds": 0, "core.cache_hit_frac": 0,
		"mapstore.measure_appends": 0, "mapstore.map_puts": 0, "mapstore.map_hits": 0,
	}
	for k, v := range traceSummary(spans, out.from, out.to, out.virtual) {
		values[k] = v
	}
	for k, v := range out.layer {
		values[k] = v
	}
	values["trace.wall_s"] = seconds(out.traced)
	values["trace.untraced_wall_s"] = seconds(out.untraced)
	values["trace.overhead_frac"] = seconds(out.traced)/seconds(out.untraced) - 1
	values["host.nproc"] = float64(runtime.NumCPU())
	values["host.calib_ms"] = millis(calib)
	if err := probes(rc, values); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := ladder(rc, values); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	values["engine.peak_rss_mb"] = peakRSSMiB()
	return values, nil
}

// updateGolden runs each workload that owns a golden file once and
// writes the digests of what it produced.
func updateGolden(o options, stderr io.Writer) error {
	rc, cleanup, err := newRunCtx(o)
	if err != nil {
		return err
	}
	defer cleanup()
	rc.minMeasure = 0
	rc.record = map[string]goldenSet{}
	for _, w := range []string{wlExhaustive, wlAdaptive, wlJobmix} {
		fmt.Fprintf(stderr, "recording %s\n", w)
		if _, err := workloadFuncs[w](rc); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if err := writeGolden(goldenDir, w, rc.sz.smoke, rc.record[w]); err != nil {
			return err
		}
	}
	return nil
}

// runRounds is the all-workloads mode: round r runs every workload
// once, each in a process of its own (a clean heap, its own peak RSS),
// so a workload's runs are spread over the whole session and a noisy
// minute cannot bias one of them. It prints each metric's median over
// the rounds and the spread between its quartiles as a share of that
// median, beside the bound the metric must hold.
func runRounds(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	decls := endToEndDecls
	if o.trace == 1 {
		decls = perLayerDecls
	}
	got := map[string]map[string][]float64{} // workload → metric → one value per round
	failed := 0
	for r := 0; r < o.rounds; r++ {
		for _, w := range workloadDecls {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed + int64(r)),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("round %d %s: %w", r, w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("round %d %s: last line is not a report: %w", r, w.Name, err)
			}
			failed += rep.Failed
			if got[w.Name] == nil {
				got[w.Name] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				got[w.Name][name] = append(got[w.Name][name], m.Value)
			}
			// The child's first line carries the host calibration: a
			// round that stands out there was measured on a disturbed host.
			fmt.Fprintf(stderr, "round %d %s\n", r, lines[0])
		}
	}
	for _, w := range workloadDecls {
		fmt.Fprintf(stdout, "\n%s (%d rounds, seeds %d..%d)\n", w.Name, o.rounds, o.seed, o.seed+int64(o.rounds)-1)
		for _, d := range decls {
			xs := got[w.Name][d.Name]
			lo, hi := minMax(xs)
			fmt.Fprintf(stdout, "  %-32s %14.6g %-6s %-6s min %.6g max %.6g", d.Name, median(xs), d.Unit, d.Better, lo, hi)
			if d.Bound > 0 {
				fmt.Fprintf(stdout, "  spread %.4f bound %.2f", quartileSpread(xs), d.Bound)
			}
			fmt.Fprintf(stdout, "  rounds %.6g\n", xs)
		}
	}
	if failed > 0 {
		return errors.New("some outputs differ from their golden digests")
	}
	return nil
}
