package exec

import (
	"container/heap"
	"sort"

	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// SpillPolicy selects how Sort degrades when its input exceeds memory.
//
// The paper's §4 predicts exactly this experiment: "we expect that some
// implementations of sorting spill their entire input to disk if the input
// size exceeds the memory size by merely a single record. Those sort
// implementations lacking graceful degradation will show discontinuous
// execution costs." PolicyDegenerate is that implementation;
// PolicyGraceful is the robust alternative. The sortspill experiment maps
// both.
type SpillPolicy int

const (
	// PolicyGraceful keeps the first memory-full of rows in memory as run
	// zero and spills only the overflow; the cost near the memory boundary
	// is continuous in the input size.
	PolicyGraceful SpillPolicy = iota
	// PolicyDegenerate spills the entire input — including the prefix that
	// fit in memory — as soon as a single row exceeds the budget,
	// producing a cost discontinuity at the boundary.
	PolicyDegenerate
)

// String names the policy for reports.
func (p SpillPolicy) String() string {
	switch p {
	case PolicyGraceful:
		return "graceful"
	case PolicyDegenerate:
		return "degenerate"
	default:
		return "unknown"
	}
}

// Sort is an external merge sort over its input with a byte memory budget
// from the context.
type Sort struct {
	ctx    *Ctx
	input  rowCursor
	schema *record.Schema
	keys   []int
	policy SpillPolicy

	built    bool
	memRows  []Row
	memPos   int
	merger   *runMerger
	rowBytes int
	rowOutput
}

// NewSort constructs a sort on the given key column ordinals.
func NewSort(ctx *Ctx, input RowIter, schema *record.Schema, keys []int, policy SpillPolicy) *Sort {
	return &Sort{ctx: ctx, input: rowCursor{input}, schema: schema, keys: keys, policy: policy,
		rowBytes: schema.EncodedSizeEstimate()}
}

// Open opens the input; sorting is deferred to the first pull.
func (s *Sort) Open() { s.input.Open() }

func (s *Sort) compare(a, b Row) int {
	s.ctx.ChargeCPU(simclock.AccountCompare, CostSortCompare, 1)
	for _, k := range s.keys {
		if c := record.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// sortRows sorts a slice of rows; comparison costs are charged per call
// inside compare, so the virtual cost tracks the real comparison count.
func (s *Sort) sortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool { return s.compare(rows[i], rows[j]) < 0 })
}

func (s *Sort) build() {
	s.built = true
	maxRows := s.ctx.Budget() / int64(s.rowBytes)
	if maxRows < 1 {
		maxRows = 1
	}
	spill := func(rows []Row) spillRun {
		s.sortRows(rows)
		w := newRunWriter(s.ctx, s.schema)
		for _, r := range rows {
			w.write(r)
		}
		return w.finish()
	}

	// Input is taken a row at a time: run writes interleave with the
	// input's own page reads, and the device model prices that
	// interleaving. Every row is kept past the next pull, so it is cloned.
	//
	// Phase 1: fill memory. Once the input reports exhaustion it must
	// not be pulled again (scan operators treat that as a contract
	// violation), so the overflow probe runs only on a full buffer.
	buf := make([]Row, 0, 1024)
	overflowRow, overflowed := Row(nil), false
	exhausted := false
	for int64(len(buf)) < maxRows {
		row, ok := s.input.next()
		if !ok {
			exhausted = true
			break
		}
		buf = append(buf, cloneRow(row))
	}
	if !exhausted {
		if r, ok := s.input.next(); ok {
			overflowRow, overflowed = cloneRow(r), true
		}
	}
	if !overflowed {
		s.sortRows(buf)
		s.memRows = buf
		return
	}

	var runs []spillRun
	if s.policy == PolicyGraceful {
		// Graceful degradation: the memory-resident prefix stays in memory
		// as run zero; only the overflow is spilled, in small chunks, so
		// the spill cost is proportional to the overflow — continuous at
		// the memory boundary.
		s.sortRows(buf)
		chunkSize := maxRows / 16
		if chunkSize < 1 {
			chunkSize = 1
		}
		chunk := []Row{overflowRow}
		for {
			row, ok := s.input.next()
			if !ok {
				break
			}
			chunk = append(chunk, cloneRow(row))
			if int64(len(chunk)) >= chunkSize {
				runs = append(runs, spill(chunk))
				chunk = chunk[:0]
			}
		}
		if len(chunk) > 0 {
			runs = append(runs, spill(chunk))
		}
		s.merger = newRunMerger(s.ctx, s, runs, buf)
		return
	}

	// Degenerate policy: one row over budget spills the entire input —
	// including the prefix that fit — producing the cost discontinuity
	// the paper's §4 predicts for sorts lacking graceful degradation.
	runs = append(runs, spill(buf))
	buf = []Row{overflowRow}
	for {
		row, ok := s.input.next()
		if !ok {
			break
		}
		buf = append(buf, cloneRow(row))
		if int64(len(buf)) >= maxRows {
			runs = append(runs, spill(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		runs = append(runs, spill(buf))
	}
	s.merger = newRunMerger(s.ctx, s, runs, nil)
}

// NextBatch returns up to max rows in ascending key order.
func (s *Sort) NextBatch(max int) (*Batch, bool) { return s.fill(s.next, max) }

func (s *Sort) next() (Row, bool) {
	if !s.built {
		s.build()
	}
	if s.merger != nil {
		return s.merger.next()
	}
	if s.memPos >= len(s.memRows) {
		return nil, false
	}
	r := s.memRows[s.memPos]
	s.memPos++
	s.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
	return r, true
}

// Close closes the input and drops spill files.
func (s *Sort) Close() {
	s.input.Close()
	if s.merger != nil {
		s.merger.drop()
	}
	s.release()
}

// runMerger is a k-way merge over spilled runs plus an optional in-memory
// run, using a loser-tree-equivalent binary heap.
type runMerger struct {
	ctx  *Ctx
	sort *Sort
	runs []spillRun
	h    mergeHeap
}

type mergeSource struct {
	reader *runReader // nil for the in-memory run
	mem    []Row
	pos    int
	cur    Row
}

func (src *mergeSource) advance() bool {
	if src.reader != nil {
		row, ok := src.reader.next()
		if !ok {
			return false
		}
		// Copy: the reader reuses its buffer.
		out := make(Row, len(row))
		copy(out, row)
		src.cur = out
		return true
	}
	if src.pos >= len(src.mem) {
		return false
	}
	src.cur = src.mem[src.pos]
	src.pos++
	return true
}

type mergeHeap struct {
	sources []*mergeSource
	cmp     func(a, b Row) int
}

func (h mergeHeap) Len() int           { return len(h.sources) }
func (h mergeHeap) Less(i, j int) bool { return h.cmp(h.sources[i].cur, h.sources[j].cur) < 0 }
func (h mergeHeap) Swap(i, j int)      { h.sources[i], h.sources[j] = h.sources[j], h.sources[i] }
func (h *mergeHeap) Push(x any)        { h.sources = append(h.sources, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any {
	old := h.sources
	n := len(old)
	x := old[n-1]
	h.sources = old[:n-1]
	return x
}

func newRunMerger(ctx *Ctx, s *Sort, runs []spillRun, memRun []Row) *runMerger {
	m := &runMerger{ctx: ctx, sort: s, runs: runs}
	m.h.cmp = s.compare
	for _, run := range runs {
		src := &mergeSource{reader: newRunReader(ctx, run)}
		if src.advance() {
			m.h.sources = append(m.h.sources, src)
		}
	}
	if len(memRun) > 0 {
		src := &mergeSource{mem: memRun}
		if src.advance() {
			m.h.sources = append(m.h.sources, src)
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *runMerger) next() (Row, bool) {
	if m.h.Len() == 0 {
		return nil, false
	}
	src := m.h.sources[0]
	row := src.cur
	if src.advance() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	m.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
	return row, true
}

func (m *runMerger) drop() {
	for _, run := range m.runs {
		run.drop(m.ctx)
	}
	m.runs = nil
}
