package engine

import (
	"reflect"
	"sync"
	"testing"

	"robustmap/internal/plan"
)

// TestSessionReuseMatchesFreshRun checks the Session contract: a reused
// session measures bit-for-bit what a throwaway System.Run measures, for
// plans with and without spill activity, in any interleaving.
func TestSessionReuseMatchesFreshRun(t *testing.T) {
	sys := getA(t)
	n := sys.Rows()
	points := []plan.Query{
		{TA: n / 1024, TB: -1},
		{TA: n / 16, TB: -1},
		{TA: n, TB: -1},
	}
	plans := []plan.Plan{
		paperPlan("A1"),
		paperPlan("A2"),
		paperPlan("F1-trad"),
	}
	se := sys.NewSession()
	for _, p := range plans {
		for _, q := range points {
			fresh := sys.Run(p, q)
			reused := se.Run(p, q)
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("plan %s at %+v: fresh %+v != reused %+v", p.ID, q, fresh, reused)
			}
		}
	}
	if se.Runs() != len(plans)*len(points) {
		t.Errorf("Runs() = %d, want %d", se.Runs(), len(plans)*len(points))
	}
}

// TestConcurrentSessionsAgree runs the same measurements from many
// goroutines (each with its own Session) and checks that every goroutine
// observed the same results a serial run observes. Under -race this also
// proves the System/Disk sharing contract holds, including for plans that
// create spill files on the shared disk mid-run.
func TestConcurrentSessionsAgree(t *testing.T) {
	sys := getB(t) // System B plans sort RID bitmaps and exercise shared state
	n := sys.Rows()
	p := plan.SystemBPlans()[0]
	queries := []plan.Query{
		{TA: n / 256, TB: n / 4},
		{TA: n / 4, TB: n / 256},
		{TA: n, TB: n},
	}
	want := make([]Result, len(queries))
	for i, q := range queries {
		want[i] = sys.Run(p, q)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se := sys.NewSession()
			for i, q := range queries {
				got := se.Run(p, q)
				if !reflect.DeepEqual(got, want[i]) {
					errs <- p.ID
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for id := range errs {
		t.Errorf("concurrent session result diverged for plan %s", id)
	}
}
