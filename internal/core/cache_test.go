package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSource returns a plan source that counts underlying measurements.
func countingSource(id string) (PlanSource, *atomic.Int64) {
	var calls atomic.Int64
	return PlanSource{ID: id, Measure: func(ta, tb int64) Measurement {
		calls.Add(1)
		return Measurement{Time: time.Duration(ta*1000 + tb), Rows: ta}
	}}, &calls
}

func TestMeasureCacheHitsAndMisses(t *testing.T) {
	c := NewMeasureCache(16)
	src, calls := countingSource("p")
	cached := c.Wrap("sysA", src)

	first := cached.Measure(10, 3)
	again := cached.Measure(10, 3)
	if !reflect.DeepEqual(first, again) {
		t.Fatal("cache hit returned a different measurement")
	}
	if calls.Load() != 1 {
		t.Fatalf("underlying source measured %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, size 1", st)
	}
}

func TestMeasureCacheScopesDoNotCollide(t *testing.T) {
	c := NewMeasureCache(16)
	src, calls := countingSource("p")
	a := c.Wrap("sysA", src)
	b := c.Wrap("sysB", src)
	a.Measure(10, 3)
	b.Measure(10, 3)
	if calls.Load() != 2 {
		t.Errorf("distinct scopes shared an entry: %d measurements, want 2", calls.Load())
	}
}

func TestMeasureCacheEvictsLRU(t *testing.T) {
	c := NewMeasureCache(2)
	src, calls := countingSource("p")
	cached := c.Wrap("s", src)

	cached.Measure(1, -1) // {1}
	cached.Measure(2, -1) // {1,2}
	cached.Measure(1, -1) // hit; 2 is now least recent
	cached.Measure(3, -1) // evicts 2 -> {1,3}
	cached.Measure(1, -1) // hit
	cached.Measure(2, -1) // miss again: was evicted

	if calls.Load() != 4 {
		t.Errorf("measured %d times, want 4 (1,2,3 and re-measured 2)", calls.Load())
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Size != 2 {
		t.Errorf("size = %d, want capacity 2", st.Size)
	}
}

func TestMeasureCacheUnbounded(t *testing.T) {
	c := NewMeasureCache(0)
	src, _ := countingSource("p")
	cached := c.Wrap("s", src)
	for i := int64(0); i < 100; i++ {
		cached.Measure(i, -1)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Size != 100 {
		t.Errorf("unbounded cache stats = %+v", st)
	}
	if c.Len() != 100 {
		t.Errorf("Len = %d, want 100", c.Len())
	}
}

// TestMeasureCacheNegativeCapacityUnbounded pins the documented contract
// that any capacity <= 0 — not just zero — means unbounded: entries
// accumulate without eviction and Stats reports Capacity 0.
func TestMeasureCacheNegativeCapacityUnbounded(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		c := NewMeasureCache(capacity)
		src, _ := countingSource("p")
		cached := c.Wrap("s", src)
		for i := int64(0); i < 64; i++ {
			cached.Measure(i, -1)
		}
		st := c.Stats()
		if st.Evictions != 0 || st.Size != 64 || st.Capacity != 0 {
			t.Errorf("capacity %d: stats = %+v, want 64 entries, no evictions, Capacity 0",
				capacity, st)
		}
	}
}

// TestMeasureCacheConcurrentWrap hammers one wrapped source from many
// goroutines — racing on the same absent keys as well as distinct ones —
// under -race. Every caller must observe the deterministic value, and the
// counters must account for every request.
func TestMeasureCacheConcurrentWrap(t *testing.T) {
	c := NewMeasureCache(0)
	src := PlanSource{ID: "p", Measure: func(ta, tb int64) Measurement {
		return Measurement{Time: time.Duration(ta * 3), Rows: ta}
	}}
	cached := c.Wrap("s", src)
	const workers, perWorker = 16, 200
	const distinct = 25 // perWorker % distinct == 0: all workers hit all keys
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perWorker; i++ {
				k := i % distinct
				if v := cached.Measure(k, -1); v.Time != time.Duration(k*3) || v.Rows != k {
					select {
					case errs <- fmt.Sprintf("Measure(%d) = %+v", k, v):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
	st := c.Stats()
	if st.Size != distinct {
		t.Errorf("cache holds %d entries, want %d", st.Size, distinct)
	}
	if st.Hits+st.Misses != workers*perWorker {
		t.Errorf("hits %d + misses %d != %d requests", st.Hits, st.Misses, workers*perWorker)
	}
	// Racing workers may each measure an absent key once, but misses can
	// never exceed one per (worker, key) pair.
	if st.Misses < distinct || st.Misses > workers*distinct {
		t.Errorf("misses = %d, want within [%d, %d]", st.Misses, distinct, workers*distinct)
	}
}

func TestMeasureCacheNilWrapPassesThrough(t *testing.T) {
	src, calls := countingSource("p")
	var c *MeasureCache
	cached := c.Wrap("s", src)
	cached.Measure(1, -1)
	cached.Measure(1, -1)
	if calls.Load() != 2 {
		t.Errorf("nil cache should not memoize, measured %d times", calls.Load())
	}
}

// TestMeasureCacheConcurrentSweeps drives a parallel sweep through a shared
// cache (run with -race), then repeats it and checks the repeat is served
// entirely from the cache.
func TestMeasureCacheConcurrentSweeps(t *testing.T) {
	c := NewMeasureCache(0)
	var sources []PlanSource
	var counters []*atomic.Int64
	for _, id := range []string{"a", "b", "c"} {
		src, calls := countingSource(id)
		sources = append(sources, c.Wrap("s", src))
		counters = append(counters, calls)
	}
	fr, th := expAxis(5)
	ex := ParallelExecutor{Workers: 8}
	first, _ := run2D(sources, fr, fr, th, th, WithExecutor(ex))
	st := c.Stats()
	if st.Size != 3*len(th)*len(th) {
		t.Fatalf("cache holds %d entries, want %d", st.Size, 3*len(th)*len(th))
	}
	before := counters[0].Load() + counters[1].Load() + counters[2].Load()
	second, _ := run2D(sources, fr, fr, th, th, WithExecutor(ex))
	after := counters[0].Load() + counters[1].Load() + counters[2].Load()
	if after != before {
		t.Errorf("repeat sweep measured %d new cells, want 0", after-before)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached sweep produced a different map")
	}
}

// TestMeasureCacheAdaptiveReusesExhaustiveCells pins the cross-sweep reuse
// the cache exists for: an adaptive pass after an exhaustive sweep over
// the same grid re-measures nothing.
func TestMeasureCacheAdaptiveReusesExhaustiveCells(t *testing.T) {
	c := NewMeasureCache(0)
	var sources []PlanSource
	var counters []*atomic.Int64
	for _, p := range synthPlans() {
		p := p
		var calls atomic.Int64
		counters = append(counters, &calls)
		counted := PlanSource{ID: p.ID, Measure: func(ta, tb int64) Measurement {
			calls.Add(1)
			return p.Measure(ta, tb)
		}}
		sources = append(sources, c.Wrap("s", counted))
	}
	fr, th := expAxis(8)
	run2D(sources, fr, fr, th, th)
	var before int64
	for _, ct := range counters {
		before += ct.Load()
	}
	run2D(sources, fr, fr, th, th, WithAdaptive(synthOracle()))
	var after int64
	for _, ct := range counters {
		after += ct.Load()
	}
	if after != before {
		t.Errorf("adaptive pass re-measured %d cells the exhaustive sweep already had", after-before)
	}
}
