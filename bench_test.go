package robustmap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=.). One benchmark per figure reports the
// figure's headline numbers as custom metrics; the Ablation benchmarks
// map the design choices DESIGN.md calls out.

import (
	"context"
	"sync"
	"testing"
	"time"

	"robustmap/internal/catalog"
	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/exec"
	"robustmap/internal/experiments"
	"robustmap/internal/iomodel"
	"robustmap/internal/mdam"
	"robustmap/internal/plan"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

var (
	studyOnce  sync.Once
	benchStudy *Study
)

// sharedStudy builds the systems and the shared 13-plan 2-D sweep once for
// all figure benchmarks.
func sharedStudy(b *testing.B) *Study {
	b.Helper()
	studyOnce.Do(func() {
		s, err := NewStudy(SmallStudyConfig())
		if err != nil {
			b.Fatal(err)
		}
		s.Map2D() // pay the sweep once, outside individual benchmarks
		benchStudy = s
	})
	return benchStudy
}

// paperPlan looks one of the paper's plans up by id, across the 13-plan
// study and the Figure 1/2 extras.
func paperPlan(id string) plan.Plan {
	return plan.ByID(append(plan.AllPlans(), plan.Figure2Plans()...), id)
}

func benchFigure(b *testing.B, run func(*Study) *Artifacts) *Artifacts {
	s := sharedStudy(b)
	b.ResetTimer()
	var art *Artifacts
	for i := 0; i < b.N; i++ {
		art = run(s)
	}
	b.StopTimer()
	if !art.Passed() {
		b.Fatalf("paper-claim checks failed:\n%s", art.Summary)
	}
	return art
}

func BenchmarkFigure1(b *testing.B) {
	art := benchFigure(b, experiments.Figure1)
	_ = art
}

func BenchmarkFigure2(b *testing.B) {
	benchFigure(b, experiments.Figure2)
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(nil)
	}
}

func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, experiments.Figure4)
}

func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, experiments.Figure5)
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(nil)
	}
}

func BenchmarkFigure7(b *testing.B) {
	s := sharedStudy(b)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art := experiments.Figure7(s)
		if !art.Passed() {
			b.Fatalf("checks failed:\n%s", art.Summary)
		}
		rel := s.Map2D().RelativeGridAgainst("A2", benchBaselineA())
		worst = core.SummarizeRelative(rel).Worst
	}
	b.ReportMetric(worst, "worst-factor")
}

func benchBaselineA() []string {
	var ids []string
	for _, p := range plan.SystemAPlans() {
		ids = append(ids, p.ID)
	}
	return ids
}

func BenchmarkFigure8(b *testing.B) {
	s := sharedStudy(b)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art := experiments.Figure8(s)
		if !art.Passed() {
			b.Fatalf("checks failed:\n%s", art.Summary)
		}
		worst = core.SummarizeRelative(s.Map2D().RelativeGridAgainst("B1", benchBaselineA())).Worst
	}
	b.ReportMetric(worst, "worst-factor")
}

func BenchmarkFigure9(b *testing.B) {
	s := sharedStudy(b)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art := experiments.Figure9(s)
		if !art.Passed() {
			b.Fatalf("checks failed:\n%s", art.Summary)
		}
		worst = core.SummarizeRelative(s.Map2D().RelativeGridAgainst("C1", benchBaselineA())).Worst
	}
	b.ReportMetric(worst, "worst-factor")
}

func BenchmarkFigure10(b *testing.B) {
	s := sharedStudy(b)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art := experiments.Figure10(s)
		if !art.Passed() {
			b.Fatalf("checks failed:\n%s", art.Summary)
		}
		om := core.ComputeOptimality(s.Map2D(),
			core.Tolerance{Absolute: 100 * time.Millisecond, Relative: 1.01})
		frac = om.MultiOptimalFraction(2)
	}
	b.ReportMetric(frac*100, "multi-optimal-%")
}

func BenchmarkSortSpill(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art := experiments.SortSpill(s)
		if !art.Passed() {
			b.Fatalf("checks failed:\n%s", art.Summary)
		}
	}
}

// --- Sweep executor benchmarks ---------------------------------------------

var (
	sweepBenchOnce  sync.Once
	sweepBenchStudy *Study
)

// sweepStudy builds a reduced study for the executor benchmarks: the small
// study grid at 2^14 rows, 13 plans over a 6×6 grid (468 cells per sweep).
func sweepStudy(b *testing.B) *Study {
	b.Helper()
	sweepBenchOnce.Do(func() {
		cfg := SmallStudyConfig()
		cfg.Rows = 1 << 14
		cfg.Engine.Rows = cfg.Rows
		cfg.MaxExp2D = 5
		s, err := NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sweepBenchStudy = s
	})
	return sweepBenchStudy
}

// benchSweep runs one sweep request to completion.
func benchSweep(b *testing.B, plans []core.PlanSource, opts ...core.SweepOption) *core.SweepResult {
	res, err := core.NewSweep(plans, opts...).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func sweepBenchAxis(rows int64, maxExp int) ([]float64, []int64) {
	var fr []float64
	var th []int64
	for k := maxExp; k >= 0; k-- {
		fr = append(fr, 1/float64(int64(1)<<uint(k)))
		t := rows >> uint(k)
		if t < 1 {
			t = 1
		}
		th = append(th, t)
	}
	return fr, th
}

// BenchmarkSweep2DExecutors contrasts the serial measurement loop with the
// work-stealing parallel executor on the shared 13-plan 2-D sweep. Map
// contents are identical at every worker count (the determinism tests pin
// that); only wall-clock time changes. On a multi-core box the 4-worker
// run completes the sweep several times faster than serial.
func BenchmarkSweep2DExecutors(b *testing.B) {
	s := sweepStudy(b)
	fr, th := sweepBenchAxis(s.Cfg.Rows, s.Cfg.MaxExp2D)
	for _, workers := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "serial", 2: "par2", 4: "par4", 8: "par8"}[workers]
		b.Run(name, func(b *testing.B) {
			ex := NewExecutor(workers)
			for i := 0; i < b.N; i++ {
				benchSweep(b, s.AllSources(), core.Grid2D(fr, fr, th, th), core.WithExecutor(ex))
			}
		})
	}
}

// BenchmarkSweep2DAdaptive contrasts the exhaustive sweep with the
// adaptive multi-resolution sweep on the shared 13-plan 2-D grid, at one
// and four workers. The custom metrics report how many (plan, point)
// cells each sweep measured: the adaptive sweep's winner and landmark
// maps are pinned identical to the exhaustive ones by the equivalence
// tests, so measured-cells is the work actually saved.
func BenchmarkSweep2DAdaptive(b *testing.B) {
	s := sweepStudy(b)
	fr, th := sweepBenchAxis(s.Cfg.Rows, s.Cfg.MaxExp2D)
	oracle := func(ta, tb int64) int64 {
		return s.SysA.ResultSize(plan.Query{TA: ta, TB: tb})
	}
	cases := []struct {
		name     string
		adaptive bool
		workers  int
	}{
		{"exhaustive-serial", false, 1},
		{"exhaustive-par4", false, 4},
		{"adaptive-serial", true, 1},
		{"adaptive-par4", true, 4},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ex := NewExecutor(c.workers)
			cells := 0
			for i := 0; i < b.N; i++ {
				if c.adaptive {
					cfg := core.DefaultAdaptiveConfig()
					cfg.ResultSize = oracle
					res := benchSweep(b, s.AllSources(), core.Grid2D(fr, fr, th, th),
						core.WithExecutor(ex), core.WithAdaptive(cfg))
					cells = res.Mesh2D.MeasuredCells
				} else {
					benchSweep(b, s.AllSources(), core.Grid2D(fr, fr, th, th), core.WithExecutor(ex))
					cells = 13 * len(th) * len(th)
				}
			}
			b.ReportMetric(float64(cells), "measured-cells")
		})
	}
}

// BenchmarkMeasureCache contrasts a cold sweep with a cache-served repeat
// of the same grid: the second pass touches no session at all.
func BenchmarkMeasureCache(b *testing.B) {
	s := sweepStudy(b)
	fr, th := sweepBenchAxis(s.Cfg.Rows, s.Cfg.MaxExp2D)
	cache := core.NewMeasureCache(0)
	var sources []core.PlanSource
	for _, src := range s.AllSources() {
		sources = append(sources, cache.Wrap("bench", src))
	}
	benchSweep(b, sources, core.Grid2D(fr, fr, th, th), core.WithParallelism(4)) // warm
	before := cache.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSweep(b, sources, core.Grid2D(fr, fr, th, th), core.WithParallelism(4))
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits-before.Hits)/float64(b.N), "cache-hits/op")
	b.ReportMetric(float64(st.Misses-before.Misses)/float64(b.N), "cache-misses/op")
}

// BenchmarkSweep1DExecutors is the 1-D counterpart over Figure 1's plans.
func BenchmarkSweep1DExecutors(b *testing.B) {
	s := sweepStudy(b)
	fr, th := sweepBenchAxis(s.Cfg.Rows, s.Cfg.MaxExp1D)
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "serial", 4: "par4"}[workers]
		b.Run(name, func(b *testing.B) {
			ex := NewExecutor(workers)
			var sources []core.PlanSource
			for _, p := range plan.Figure1Plans() {
				sources = append(sources, PlanSourceFor(s.SysA, p))
			}
			for i := 0; i < b.N; i++ {
				benchSweep(b, sources, core.Grid1D(fr, th), core.WithExecutor(ex))
			}
		})
	}
}

// --- Ablation benchmarks ---------------------------------------------------

var (
	ablOnce sync.Once
	ablSys  *engine.System
)

func ablationSystem(b *testing.B) *engine.System {
	b.Helper()
	ablOnce.Do(func() {
		cfg := engine.DefaultConfig()
		cfg.Rows = 1 << 15
		var err error
		ablSys, err = engine.SystemA(cfg)
		if err != nil {
			b.Fatal(err)
		}
	})
	return ablSys
}

// BenchmarkAblationFetchBatch maps how the improved fetch degrades as its
// RID batch shrinks relative to the result (page revisits across batches —
// the residual non-robustness of Figure 1's improved plan).
func BenchmarkAblationFetchBatch(b *testing.B) {
	sys := ablationSystem(b)
	n := sys.Rows()
	for _, div := range []int64{1, 4, 16, 64} {
		name := map[int64]string{1: "whole", 4: "quarter", 16: "16th", 64: "64th"}[div]
		b.Run(name, func(b *testing.B) {
			cfg := sys.Config()
			cfg.MemoryBudget = (n / div) * exec.RIDMemBytes
			scaled, err := engine.SystemA(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				r := scaled.Run(paperPlan("A2"), plan.Query{TA: n, TB: -1})
				vt = r.Time
			}
			b.ReportMetric(vt.Seconds(), "virtual-sec")
		})
	}
}

// BenchmarkAblationGapStreaming contrasts the improved fetch with and
// without its stream-through-short-gaps optimization at a density where
// sorted RIDs land on roughly every other page: without streaming, every
// page change pays a seek, and RID sorting alone does not rescue the plan.
func BenchmarkAblationGapStreaming(b *testing.B) {
	clock := simclock.New()
	dev := iomodel.NewDevice(iomodel.DefaultParams(), clock)
	pool := storage.NewPool(storage.NewDisk(), dev, clock, 256)
	sch := record.NewSchema(
		record.Column{Name: "id", Type: record.TypeInt64},
		record.Column{Name: "a", Type: record.TypeInt64},
		record.Column{Name: "pad", Type: record.TypeString},
	)
	tbl := &catalog.Table{Name: "g", Schema: sch, Heap: storage.CreateHeap(pool)}
	const n = 1 << 15
	pad := record.String_(string(make([]byte, 100)))
	var buf []byte
	for i := int64(0); i < n; i++ {
		buf = buf[:0]
		buf, _ = sch.Encode(buf, []record.Value{record.Int(i), record.Int((i * 37) % n), pad})
		tbl.Heap.Append(buf)
	}
	ix, err := catalog.BuildIndex("g_a", tbl, catalog.Loader(pool, clock), true, "a")
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := map[bool]string{false: "streaming", true: "seek-per-page"}[disable]
		b.Run(name, func(b *testing.B) {
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				pool.FlushAll()
				clock.Reset()
				ctx := &exec.Ctx{Clock: clock, Pool: pool, MemoryBudget: 1 << 30}
				scan := exec.NewIndexRangeScan(ctx, ix, nil,
					ix.PrefixFor(record.Int(n/4))) // ~every other page
				f := exec.NewImprovedFetch(ctx, tbl, scan, nil, 0)
				f.DisableGapStreaming = disable
				exec.Drain(f)
				vt = clock.Now()
			}
			b.ReportMetric(vt.Seconds(), "virtual-sec")
		})
	}
}

// BenchmarkAblationBufferPool maps pool capacity against traditional-fetch
// cost (hit-rate robustness).
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, pages := range []int{16, 64, 256, 1024} {
		b.Run(map[int]string{16: "16p", 64: "64p", 256: "256p", 1024: "1024p"}[pages],
			func(b *testing.B) {
				cfg := engine.DefaultConfig()
				cfg.Rows = 1 << 15
				cfg.PoolPages = pages
				sys, err := engine.SystemA(cfg)
				if err != nil {
					b.Fatal(err)
				}
				q := plan.Query{TA: cfg.Rows / 8, TB: -1}
				var vt time.Duration
				for i := 0; i < b.N; i++ {
					vt = sys.Run(paperPlan("F1-trad"), q).Time
				}
				b.ReportMetric(vt.Seconds(), "virtual-sec")
			})
	}
}

// BenchmarkAblationIODevice contrasts the disk profile with a flash-like
// one: the Figure 1 crossover moves with the seek/transfer ratio.
func BenchmarkAblationIODevice(b *testing.B) {
	profiles := map[string]iomodel.Params{
		"disk":  iomodel.DefaultParams(),
		"flash": iomodel.FlashParams(),
	}
	for name, io := range profiles {
		b.Run(name, func(b *testing.B) {
			cfg := engine.DefaultConfig()
			cfg.Rows = 1 << 15
			cfg.IO = io
			sys, err := engine.SystemA(cfg)
			if err != nil {
				b.Fatal(err)
			}
			scan := paperPlan("A1")
			trad := paperPlan("F1-trad")
			var crossover float64
			for i := 0; i < b.N; i++ {
				scanCost := sys.Run(scan, plan.Query{TA: cfg.Rows, TB: -1}).Time
				crossover = 0
				for k := 14; k >= 0; k-- {
					ta := cfg.Rows >> uint(k)
					if ta < 1 {
						continue
					}
					if sys.Run(trad, plan.Query{TA: ta, TB: -1}).Time > scanCost {
						crossover = float64(k)
						break
					}
				}
			}
			b.ReportMetric(crossover, "crossover-exp")
		})
	}
}

// BenchmarkAblationMDAM maps the probe threshold of the MDAM scan on a
// duplicated leading column (two groups spanning hundreds of leaves each).
func BenchmarkAblationMDAM(b *testing.B) {
	clock := simclock.New()
	dev := iomodel.NewDevice(iomodel.DefaultParams(), clock)
	pool := storage.NewPool(storage.NewDisk(), dev, clock, 512)
	ctbl := buildDuplicatedLeadIndex(b, pool, clock, 1<<17, 2)
	for _, thr := range []int{1, 16, 256, 1 << 30} {
		name := map[int]string{1: "thr1", 16: "thr16", 256: "thr256", 1 << 30: "never"}[thr]
		b.Run(name, func(b *testing.B) {
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				clock.Reset()
				pool.FlushAll()
				ctx := &exec.Ctx{Clock: clock, Pool: pool, MemoryBudget: 1 << 30}
				s := exec.NewMDAMScan(ctx, ctbl, mdam.All(),
					mdam.Range(record.Int(1000), record.Int(1020)))
				s.ProbeThreshold = thr
				if thr == 1<<30 {
					s.DisableProbes = true
				}
				exec.Drain(s)
				vt = clock.Now()
			}
			b.ReportMetric(vt.Seconds(), "virtual-sec")
		})
	}
}

// buildDuplicatedLeadIndex creates a (g, b) covering index whose leading
// column has only `groups` distinct values — the regime where MDAM probes
// pay off.
func buildDuplicatedLeadIndex(b *testing.B, pool *storage.Pool, clock *simclock.Clock,
	n, groups int64) *catalog.Index {
	b.Helper()
	sch := record.NewSchema(
		record.Column{Name: "g", Type: record.TypeInt64},
		record.Column{Name: "b", Type: record.TypeInt64},
	)
	tbl := &catalog.Table{Name: "dup", Schema: sch, Heap: storage.CreateHeap(pool)}
	var buf []byte
	for i := int64(0); i < n; i++ {
		buf = buf[:0]
		var err error
		buf, err = sch.Encode(buf, []record.Value{
			record.Int(i % groups), record.Int((i * 61) % n),
		})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Heap.Append(buf)
	}
	ix, err := catalog.BuildIndex("dup_gb", tbl, catalog.Loader(pool, clock), true, "g", "b")
	if err != nil {
		b.Fatal(err)
	}
	clock.Reset()
	return ix
}

// BenchmarkAblationSkew contrasts uniform and Zipf-skewed predicate
// columns: with skew, equal thresholds select very different row counts,
// and the improved fetch's cost tracks the actual (not nominal) result
// size — the data-skew robustness factor the paper lists among the
// "strongest influences" on performance.
func BenchmarkAblationSkew(b *testing.B) {
	for name, zipf := range map[string]float64{"uniform": 0, "zipf1.5": 1.5} {
		b.Run(name, func(b *testing.B) {
			cfg := engine.DefaultConfig()
			cfg.Rows = 1 << 15
			sys, err := engine.BuildSystem("skew", engine.Config{
				Rows: cfg.Rows, Seed: cfg.Seed, PoolPages: cfg.PoolPages,
				MemoryBudget: cfg.MemoryBudget, IO: cfg.IO,
				Indexes: []string{"a", "b"}, ZipfA: zipf,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := plan.Query{TA: cfg.Rows / 256, TB: -1}
			var rows int64
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				r := sys.Run(paperPlan("A2"), q)
				rows, vt = r.Rows, r.Time
			}
			b.ReportMetric(float64(rows), "rows-selected")
			b.ReportMetric(vt.Seconds(), "virtual-sec")
		})
	}
}

// BenchmarkAblationHashJoin maps the RID hash intersection under memory
// pressure: the grace-partitioning penalty of building on the large side.
func BenchmarkAblationHashJoin(b *testing.B) {
	sys := ablationSystem(b)
	n := sys.Rows()
	cases := map[string]plan.Plan{
		"build-small": paperPlan("A6"), // idx(a) range is the small side
		"build-large": paperPlan("A7"),
	}
	for name, p := range cases {
		b.Run(name, func(b *testing.B) {
			cfg := sys.Config()
			cfg.MemoryBudget = 1 << 16 // 4096 buffered RIDs
			scaled, err := engine.SystemA(cfg)
			if err != nil {
				b.Fatal(err)
			}
			q := plan.Query{TA: n / 64, TB: n}
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				vt = scaled.Run(p, q).Time
			}
			b.ReportMetric(vt.Seconds(), "virtual-sec")
		})
	}
}
