// Quickstart: build a small database system, run two fixed plans over a
// range of selectivities, and print a robustness map — first as a
// direct in-process sweep, then the same study submitted as a job
// through the service API, proving both paths produce the same map.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"time"

	"robustmap"
	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/plan"
	"robustmap/internal/vis"
)

func main() {
	// A System A-style engine: heap table plus single-column B-tree
	// indexes, deterministic disk cost model, cold cache per query.
	cfg := engine.DefaultConfig()
	cfg.Rows = 1 << 16 // smaller than the full study, still contrastful
	sys, err := engine.SystemA(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Two fixed plans for the query SELECT * FROM lineitem WHERE a < t:
	// a full table scan and the paper's "improved" index scan.
	scan := plan.ByID(plan.Figure1Plans(), "A1")
	improved := plan.ByID(plan.Figure1Plans(), "A2")

	// Sweep selectivities 2^-14 .. 2^0 and measure both plans. (The sweep
	// must reach fractions where a handful of point fetches beats reading
	// every page — below roughly seek/transfer ≈ 2^-12 of the table.)
	// SweepAxis is the same construction job requests use, which is what
	// makes part 2's byte-identity comparison below airtight.
	fractions, thresholds := core.SweepAxis(cfg.Rows, 14)
	src := func(p plan.Plan) core.PlanSource {
		return core.PlanSource{ID: p.ID, Measure: func(ta, tb int64) core.Measurement {
			r := sys.Run(p, plan.Query{TA: ta, TB: tb})
			return core.Measurement{Time: r.Time, Rows: r.Rows}
		}}
	}
	res, err := core.NewSweep([]core.PlanSource{src(scan), src(improved)},
		core.Grid1D(fractions, thresholds)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	m := res.Map1D

	// Render the 1-D robustness map.
	series := map[string][]time.Duration{
		"table scan":     m.Series("A1"),
		"improved index": m.Series("A2"),
	}
	fmt.Println(vis.LineChartASCII(fractions, series, 72, 18,
		"Robustness map: table scan vs improved index scan"))

	// Read off the landmarks the paper's §3.1 describes.
	for name, s := range series {
		st := core.SummarizeCurve(m.Rows, s)
		fmt.Printf("%-16s min=%-12v max=%-12v max/min=%.1f landmarks=%d\n",
			name, st.Min, st.Max, st.MaxOverMin, st.Landmarks)
	}
	fmt.Println("\nThe table scan is flat; the improved index scan wins at low")
	fmt.Println("selectivities and degrades to a bounded factor at high ones —")
	fmt.Println("Figure 1 of the paper, regenerated.")

	// Part 2: the same study submitted as a job through the service API.
	// A Service turns the blocking sweep above into Submit / Status /
	// Result; robustmap.NewRemoteService("http://...") would run the
	// identical code against a robustmapd daemon.
	svc := robustmap.NewLocalService(robustmap.LocalServiceConfig{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	id, err := svc.Submit(context.Background(), robustmap.JobRequest{
		Plans:  []string{"A1", "A2"},
		Rows:   cfg.Rows,
		MaxExp: 14,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmitted the same sweep as job %s; polling...\n", id)
	var st robustmap.JobStatus
	for {
		if st, err = svc.Status(context.Background(), id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  state=%-9s measured %d/%d cells\n",
			st.State, st.Progress.MeasuredCells, st.Progress.TotalCells)
		if st.State.Terminal() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != robustmap.JobSucceeded {
		log.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	jobRes, err := svc.Result(context.Background(), id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job map identical to the direct sweep: %v\n",
		reflect.DeepEqual(jobRes.Map1D.Times, m.Times))
}
