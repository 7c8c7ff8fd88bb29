package core

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// synthPlan is a deterministic analytic plan: time and rows are pure
// functions of (ta, tb), so serial and parallel sweeps must agree exactly.
func synthPlan(id string, scale int64) PlanSource {
	return PlanSource{
		ID: id,
		Measure: func(ta, tb int64) Measurement {
			if tb < 0 {
				tb = 1
			}
			return Measurement{
				Time: time.Duration(scale*ta + 7*tb),
				Rows: ta * tb,
			}
		},
	}
}

func synthAxis(n int) ([]float64, []int64) {
	fr := make([]float64, n)
	th := make([]int64, n)
	for i := range fr {
		fr[i] = float64(i+1) / float64(n)
		th[i] = int64(i + 1)
	}
	return fr, th
}

func TestSerialExecutorOrder(t *testing.T) {
	var got []int
	SerialExecutor{}.Execute(5, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial order = %v", got)
	}
}

func TestParallelExecutorCoversAllCells(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		var calls [100]atomic.Int32
		ParallelExecutor{Workers: workers}.Execute(100, func(i int) {
			calls[i].Add(1)
		})
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: cell %d executed %d times", workers, i, n)
			}
		}
	}
}

func TestParallelExecutorPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	ParallelExecutor{Workers: 4}.Execute(50, func(i int) {
		if i == 17 {
			panic("boom 17")
		}
	})
}

func TestNewExecutor(t *testing.T) {
	if _, ok := NewExecutor(0).(SerialExecutor); !ok {
		t.Error("NewExecutor(0) not serial")
	}
	if _, ok := NewExecutor(1).(SerialExecutor); !ok {
		t.Error("NewExecutor(1) not serial")
	}
	if p, ok := NewExecutor(4).(ParallelExecutor); !ok || p.Workers != 4 {
		t.Errorf("NewExecutor(4) = %#v", NewExecutor(4))
	}
	if p, ok := NewExecutor(-1).(ParallelExecutor); !ok || p.Workers < 1 {
		t.Errorf("NewExecutor(-1) = %#v", NewExecutor(-1))
	}
}

// TestSweep1DDeterministicAcrossExecutors is the core determinism check:
// identical map contents (times, rows, plan order) under serial and
// parallel executors, and identical downstream analyses.
func TestSweep1DDeterministicAcrossExecutors(t *testing.T) {
	plans := []PlanSource{synthPlan("p1", 3), synthPlan("p2", 11), synthPlan("p3", 5)}
	fr, th := synthAxis(33)
	serial, _ := run1D(plans, fr, th, WithExecutor(SerialExecutor{}))
	for _, workers := range []int{2, 4, 7} {
		par, _ := run1D(plans, fr, th, WithExecutor(ParallelExecutor{Workers: workers}))
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("1-D map differs at %d workers", workers)
		}
		if !reflect.DeepEqual(serial.Relative("p2"), par.Relative("p2")) {
			t.Fatalf("1-D relative series differs at %d workers", workers)
		}
	}
}

func TestSweep2DDeterministicAcrossExecutors(t *testing.T) {
	plans := []PlanSource{synthPlan("p1", 3), synthPlan("p2", 11)}
	frA, thA := synthAxis(9)
	frB, thB := synthAxis(13)
	serial, _ := run2D(plans, frA, frB, thA, thB, WithExecutor(SerialExecutor{}))
	for _, workers := range []int{2, 4, 7} {
		par, _ := run2D(plans, frA, frB, thA, thB, WithExecutor(ParallelExecutor{Workers: workers}))
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("2-D map differs at %d workers", workers)
		}
		if !reflect.DeepEqual(serial.RelativeGrid("p1"), par.RelativeGrid("p1")) {
			t.Fatalf("2-D relative grid differs at %d workers", workers)
		}
	}
}

// TestSweepRowMismatchPanicParity checks that the cross-check panic under a
// parallel executor names the same offender with the same message a serial
// sweep produces.
func TestSweepRowMismatchPanicParity(t *testing.T) {
	bad := PlanSource{ID: "bad", Measure: func(ta, tb int64) Measurement {
		rows := ta
		if ta == 3 {
			rows++ // disagree at point index 2
		}
		return Measurement{Time: time.Duration(ta), Rows: rows}
	}}
	good := PlanSource{ID: "good", Measure: func(ta, tb int64) Measurement {
		return Measurement{Time: time.Duration(2 * ta), Rows: ta}
	}}
	fr, th := synthAxis(8)
	capture := func(ex SweepExecutor) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		run1D([]PlanSource{good, bad}, fr, th, WithExecutor(ex))
		return ""
	}
	serialMsg := capture(SerialExecutor{})
	parMsg := capture(ParallelExecutor{Workers: 4})
	if serialMsg == "" || serialMsg != parMsg {
		t.Fatalf("panic parity broken: serial %q vs parallel %q", serialMsg, parMsg)
	}
	if !strings.Contains(serialMsg, "plan bad") || !strings.Contains(serialMsg, "point 2") {
		t.Fatalf("panic message %q does not name the offender", serialMsg)
	}
}
