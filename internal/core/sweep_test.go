package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewSweepConfigurationErrors(t *testing.T) {
	plans := []PlanSource{synthPlan("p", 1)}
	fr, th := synthAxis(4)

	if _, err := NewSweep(plans).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "no grid") {
		t.Errorf("missing grid error = %v", err)
	}
	if _, err := NewSweep(plans, Grid1D(fr, th[:2])).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("1-D mismatch error = %v", err)
	}
	if _, err := NewSweep(plans, Grid2D(fr, fr[:2], th, th)).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("2-D mismatch error = %v", err)
	}
	if _, _, err := NewSweep(plans, Grid2D(fr, fr, th, th)).Run1D(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "Run1D on a 2-D sweep") {
		t.Errorf("Run1D dimension error = %v", err)
	}
	if _, _, err := NewSweep(plans, Grid1D(fr, th)).Run2D(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "Run2D on a 1-D sweep") {
		t.Errorf("Run2D dimension error = %v", err)
	}
}

// cancellingPlan cancels the context from inside the Nth measurement and
// counts calls. Measurements racing with the cancellation wait for it to
// land before returning, so how many cells run past N depends only on how
// many workers had already claimed one — not on how long cancel() takes.
func cancellingPlan(id string, cancel context.CancelFunc, after int64) (PlanSource, *atomic.Int64) {
	var calls atomic.Int64
	cancelled := make(chan struct{})
	return PlanSource{
		ID: id,
		Measure: func(ta, tb int64) Measurement {
			switch n := calls.Add(1); {
			case n == after:
				cancel()
				close(cancelled)
			case n > after:
				<-cancelled
			}
			if tb < 0 {
				tb = 1
			}
			return Measurement{Time: time.Duration(ta + tb), Rows: ta * tb}
		},
	}, &calls
}

func TestRunCancellationSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fr, th := synthAxis(50)
	src, calls := cancellingPlan("p", cancel, 5)
	res, err := NewSweep([]PlanSource{src}, Grid1D(fr, th)).Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned a partial result")
	}
	if got := calls.Load(); got != 5 {
		t.Errorf("serial sweep measured %d cells after cancellation at 5", got)
	}
}

func TestRunCancellationParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fr, th := synthAxis(200)
	src, calls := cancellingPlan("p", cancel, 8)
	res, err := NewSweep([]PlanSource{src}, Grid2D(fr, fr, th, th),
		WithParallelism(4)).Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned a partial result")
	}
	// Workers stop claiming once cancelled: at most the 8 triggering cells
	// plus one in-flight cell per remaining worker.
	if got := calls.Load(); got > 8+3 {
		t.Errorf("parallel sweep measured %d cells after cancellation at 8", got)
	}
}

func TestRunCancellationAdaptive(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		fr, th := synthAxis(65)
		src, _ := cancellingPlan("p", cancel, 10)
		steady := synthPlan("q", 7)
		res, err := NewSweep([]PlanSource{src, steady}, Grid2D(fr, fr, th, th),
			WithAdaptive(DefaultAdaptiveConfig()), WithParallelism(parallelism)).Run(ctx)
		cancel()
		if err != context.Canceled {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
		if res != nil {
			t.Fatalf("parallelism %d: cancelled adaptive sweep returned a partial result", parallelism)
		}
	}
}

// TestRunCancellationPreCancelled pins that an already-cancelled context
// measures nothing at all.
func TestRunCancellationPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fr, th := synthAxis(10)
	var calls atomic.Int64
	src := PlanSource{ID: "p", Measure: func(ta, tb int64) Measurement {
		calls.Add(1)
		return Measurement{Time: 1, Rows: 1}
	}}
	if _, err := NewSweep([]PlanSource{src}, Grid1D(fr, th),
		WithParallelism(4)).Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("pre-cancelled sweep measured %d cells", calls.Load())
	}
}

// TestRunCancellationNoLeakedGoroutines runs cancelled parallel and
// adaptive sweeps repeatedly and requires the goroutine count to settle
// back to the baseline — cancellation must not strand workers.
func TestRunCancellationNoLeakedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	fr, th := synthAxis(80)
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		src, _ := cancellingPlan("p", cancel, 3)
		opts := []SweepOption{Grid2D(fr, fr, th, th), WithParallelism(8)}
		if i%2 == 1 {
			opts = append(opts, WithAdaptive(DefaultAdaptiveConfig()))
		}
		if _, err := NewSweep([]PlanSource{src}, opts...).Run(ctx); err != context.Canceled {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled sweeps",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// plainExecutor implements only the legacy SweepExecutor interface, to
// exercise the compatibility fallback in executeCells.
type plainExecutor struct{}

func (plainExecutor) Execute(n int, fn func(cell int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func TestRunCancellationLegacyExecutorFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fr, th := synthAxis(50)
	src, calls := cancellingPlan("p", cancel, 5)
	res, err := NewSweep([]PlanSource{src}, Grid1D(fr, th),
		WithExecutor(plainExecutor{})).Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned a partial result")
	}
	if got := calls.Load(); got != 5 {
		t.Errorf("fallback executor measured %d cells after cancellation at 5", got)
	}
}

func TestRunProgressReports(t *testing.T) {
	plans := []PlanSource{synthPlan("p1", 3), synthPlan("p2", 11)}
	fr, th := synthAxis(12)
	var reports []Progress
	res, err := NewSweep(plans, Grid1D(fr, th),
		WithProgress(func(p Progress) { reports = append(reports, p) }),
		WithProgressInterval(0)).Run(context.Background())
	if err != nil || res.Map1D == nil {
		t.Fatalf("run failed: %v", err)
	}
	total := len(plans) * len(th)
	if len(reports) != total+1 {
		t.Fatalf("interval 0 emitted %d reports, want one per cell plus final = %d",
			len(reports), total+1)
	}
	last := 0
	for _, p := range reports[:total] {
		if p.Done {
			t.Fatal("non-final report marked Done")
		}
		if p.TotalCells != total {
			t.Fatalf("report total = %d, want %d", p.TotalCells, total)
		}
		if p.MeasuredCells < last {
			t.Fatalf("measured count went backwards: %d after %d", p.MeasuredCells, last)
		}
		last = p.MeasuredCells
	}
	final := reports[total]
	if !final.Done || final.MeasuredCells != total || final.InterpolatedCells != 0 {
		t.Fatalf("final report = %+v, want Done with %d/%d measured", final, total, total)
	}
}

// TestRunProgressParallelMonotonic pins the concurrency contract of the
// progress meter under a parallel executor: reports are serialized, one
// arrives per cell at interval 0, and MeasuredCells never decreases.
func TestRunProgressParallelMonotonic(t *testing.T) {
	plans := []PlanSource{synthPlan("p1", 3), synthPlan("p2", 11)}
	fr, th := synthAxis(40)
	var reports []Progress // appended under the meter's serialization lock
	res, err := NewSweep(plans, Grid2D(fr, fr, th, th),
		WithParallelism(8),
		WithProgress(func(p Progress) { reports = append(reports, p) }),
		WithProgressInterval(0)).Run(context.Background())
	if err != nil || res.Map2D == nil {
		t.Fatalf("run failed: %v", err)
	}
	total := len(plans) * len(th) * len(th)
	if len(reports) != total+1 {
		t.Fatalf("interval 0 emitted %d reports, want one per cell plus final = %d",
			len(reports), total+1)
	}
	last := 0
	for i, p := range reports {
		if p.MeasuredCells < last {
			t.Fatalf("report %d went backwards: %d after %d", i, p.MeasuredCells, last)
		}
		last = p.MeasuredCells
	}
	if final := reports[total]; !final.Done || final.MeasuredCells != total {
		t.Fatalf("final report = %+v, want Done with %d cells", reports[total], total)
	}
}

func TestRunProgressAdaptiveFinalReport(t *testing.T) {
	plans := []PlanSource{synthPlan("p1", 3), synthPlan("p2", 11)}
	fr, th := synthAxis(65)
	var final Progress
	res, err := NewSweep(plans, Grid2D(fr, fr, th, th),
		WithAdaptive(DefaultAdaptiveConfig()),
		WithProgress(func(p Progress) {
			if p.Done {
				final = p
			}
		}),
		WithProgressInterval(0)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mesh := res.Mesh2D
	if final.InterpolatedCells != mesh.TotalCells-mesh.MeasuredCells {
		t.Errorf("final interpolated = %d, mesh says %d",
			final.InterpolatedCells, mesh.TotalCells-mesh.MeasuredCells)
	}
	if final.TotalCells != mesh.TotalCells || !final.Done {
		t.Errorf("final report = %+v, mesh total %d", final, mesh.TotalCells)
	}
	if final.InterpolatedCells == 0 {
		t.Error("adaptive sweep interpolated nothing; grid too small to exercise the mesh?")
	}
}

// TestRunProgressThrottle pins that a long interval collapses interim
// reports (the final Done report always arrives).
func TestRunProgressThrottle(t *testing.T) {
	plans := []PlanSource{synthPlan("p1", 3)}
	fr, th := synthAxis(64)
	var reports atomic.Int64
	_, err := NewSweep(plans, Grid1D(fr, th),
		WithProgress(func(Progress) { reports.Add(1) }),
		WithProgressInterval(time.Hour)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One report can slip through before the throttle window opens (the
	// first tick compares against a zero timestamp), plus the final.
	if n := reports.Load(); n > 2 {
		t.Errorf("hour-long throttle emitted %d reports", n)
	}
}

func TestRunWithCache(t *testing.T) {
	var calls atomic.Int64
	src := PlanSource{ID: "p", Measure: func(ta, tb int64) Measurement {
		calls.Add(1)
		if tb < 0 {
			tb = 1
		}
		return Measurement{Time: time.Duration(ta), Rows: ta * tb}
	}}
	fr, th := synthAxis(20)
	c := NewMeasureCache(0) // unbounded
	sw := NewSweep([]PlanSource{src}, Grid1D(fr, th), WithCache(c), WithCacheScope("sysA"))
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := calls.Load()
	if first != int64(len(th)) {
		t.Fatalf("first run measured %d cells, want %d", first, len(th))
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != first {
		t.Errorf("second run re-measured %d cells, want 0", calls.Load()-first)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Error("cache recorded no hits across repeated runs")
	}
}

// TestWithToleranceAdaptive pins the tolerance override: a huge
// practical-equivalence tolerance lets the adaptive sweeper interpolate
// (almost) everything, a zero tolerance forces it to measure more.
func TestWithToleranceAdaptive(t *testing.T) {
	// A cubic surface: none of the three interpolation models (bilinear,
	// log-geometric, biquadratic) reproduces it exactly, so the measured
	// set is governed by the tolerance.
	curved := PlanSource{ID: "c", Measure: func(ta, tb int64) Measurement {
		if tb < 0 {
			tb = 1
		}
		return Measurement{Time: time.Duration(ta*ta*ta + tb), Rows: ta * tb}
	}}
	fr, th := synthAxis(65)
	run := func(tol Tolerance) int {
		_, mesh, err := NewSweep([]PlanSource{curved}, Grid1D(fr, th),
			WithAdaptive(DefaultAdaptiveConfig()), WithTolerance(tol)).Run1D(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return mesh.MeasuredCells
	}
	tight := run(Tolerance{})                 // no slack: everything is rough
	loose := run(Tolerance{Relative: 1000.0}) // forgive everything
	if tight <= loose {
		t.Errorf("tight tolerance measured %d cells, loose %d; want tight > loose", tight, loose)
	}
}
