package exec

import (
	"robustmap/internal/record"
	"robustmap/internal/simclock"
)

// General equality joins over row streams. The paper's selection study
// needs only the RID intersection joins (ridjoin.go); these row joins back
// the sort-vs-hash ablation ([GLS94] is cited in the paper's Figure 5
// discussion) and the join examples.

// MergeJoinRows joins two inputs already sorted on their join keys,
// emitting concatenated rows. Duplicate keys on both sides produce the
// cross product (buffered per key group).
type MergeJoinRows struct {
	ctx         *Ctx
	left, right rowCursor
	leftKeys    []int
	rightKeys   []int

	lRow    Row
	lOK     bool
	rRow    Row
	rOK     bool
	started bool

	group    []Row // buffered right rows for the current key
	groupKey Row
	gi       int
	out      Row
	rowOutput
}

// NewMergeJoinRows constructs a merge join; inputs must be sorted on the
// given key ordinals (wrap them in Sort if not).
func NewMergeJoinRows(ctx *Ctx, left, right RowIter, leftKeys, rightKeys []int) *MergeJoinRows {
	if len(leftKeys) != len(rightKeys) {
		panic("exec: merge join key arity mismatch")
	}
	return &MergeJoinRows{ctx: ctx, left: rowCursor{left}, right: rowCursor{right},
		leftKeys: leftKeys, rightKeys: rightKeys}
}

// Open opens both inputs.
func (j *MergeJoinRows) Open() {
	j.left.Open()
	j.right.Open()
}

func (j *MergeJoinRows) compareKeys(l, r Row) int {
	j.ctx.ChargeCPU(simclock.AccountCompare, CostSortCompare, 1)
	for i := range j.leftKeys {
		if c := record.Compare(l[j.leftKeys[i]], r[j.rightKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// compareRightKeys compares two right-side rows — both indexed with the
// right key ordinals, which need not match the left ordinals.
func (j *MergeJoinRows) compareRightKeys(a, b Row) int {
	j.ctx.ChargeCPU(simclock.AccountCompare, CostSortCompare, 1)
	for _, k := range j.rightKeys {
		if c := record.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// copyRowVals copies a row whose values already live on the heap (a spill
// reader's, or one cloned earlier) out of a buffer its owner reuses.
func copyRowVals(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

func (j *MergeJoinRows) advanceLeft() {
	row, ok := j.left.next()
	if ok {
		j.lRow, j.lOK = cloneRow(row), true
	} else {
		j.lOK = false
	}
}

func (j *MergeJoinRows) advanceRight() {
	row, ok := j.right.next()
	if ok {
		j.rRow, j.rOK = cloneRow(row), true
	} else {
		j.rOK = false
	}
}

// NextBatch returns up to max joined rows (left columns then right
// columns). Both inputs are taken a row at a time, alternating as the keys
// dictate — typically two Sorts whose merge reads must interleave.
func (j *MergeJoinRows) NextBatch(max int) (*Batch, bool) { return j.fill(j.next, max) }

func (j *MergeJoinRows) next() (Row, bool) {
	if !j.started {
		j.advanceLeft()
		j.advanceRight()
		j.started = true
	}
	for {
		// Emit from the buffered group.
		if j.gi < len(j.group) {
			r := j.group[j.gi]
			j.gi++
			j.out = j.out[:0]
			j.out = append(j.out, j.lRow...)
			j.out = append(j.out, r...)
			j.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
			return j.out, true
		}
		// Group exhausted for this left row: does the next left row share
		// the key?
		if len(j.group) > 0 {
			j.advanceLeft()
			if j.lOK && j.compareKeys(j.lRow, j.groupKey) == 0 {
				j.gi = 0
				continue
			}
			j.group = j.group[:0]
			j.gi = 0
		}
		if !j.lOK || !j.rOK {
			return nil, false
		}
		switch c := j.compareKeys(j.lRow, j.rRow); {
		case c < 0:
			j.advanceLeft()
		case c > 0:
			j.advanceRight()
		default:
			// Buffer all right rows with this key.
			j.groupKey = copyRowVals(j.rRow)
			j.group = append(j.group[:0], copyRowVals(j.rRow))
			for {
				j.advanceRight()
				if !j.rOK || j.compareRightKeys(j.groupKey, j.rRow) != 0 {
					break
				}
				j.group = append(j.group, copyRowVals(j.rRow))
			}
			j.gi = 0
		}
	}
}

// Close closes both inputs.
func (j *MergeJoinRows) Close() {
	j.left.Close()
	j.right.Close()
	j.release()
}

// HashJoinRows is a grace hash join: if the build input exceeds the memory
// budget, both inputs are partitioned to spill files by key hash and each
// partition pair is joined recursively. This is the memory-adaptive
// behaviour whose robustness the hash-join ablation maps.
type HashJoinRows struct {
	ctx          *Ctx
	build, probe RowIter
	buildSchema  *record.Schema
	probeSchema  *record.Schema
	buildKeys    []int
	probeKeys    []int

	results []Row // materialized output (simple and sufficient here)
	pos     int
	built   bool
	rowOutput
}

// HashJoinFanOut is the number of partitions used per grace-partitioning
// level.
const HashJoinFanOut = 8

// NewHashJoinRows constructs the join; build should be the smaller input.
func NewHashJoinRows(ctx *Ctx, build, probe RowIter, buildSchema, probeSchema *record.Schema,
	buildKeys, probeKeys []int) *HashJoinRows {
	if len(buildKeys) != len(probeKeys) {
		panic("exec: hash join key arity mismatch")
	}
	return &HashJoinRows{ctx: ctx, build: build, probe: probe,
		buildSchema: buildSchema, probeSchema: probeSchema,
		buildKeys: buildKeys, probeKeys: probeKeys}
}

// Open opens both inputs.
func (j *HashJoinRows) Open() {
	j.build.Open()
	j.probe.Open()
}

// hashKey computes a key hash for partitioning and table lookup.
func (j *HashJoinRows) hashKey(row Row, keys []int, level int) uint64 {
	j.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
	h := uint64(14695981039346656037) ^ uint64(level)*1099511628211
	for _, k := range keys {
		h = h*1099511628211 + valueHash(row[k])
	}
	return h
}

func valueHash(v record.Value) uint64 {
	if v.IsNull() {
		return 0
	}
	switch v.Type() {
	case record.TypeInt64, record.TypeDate:
		return uint64(v.AsInt()) * 0x9E3779B97F4A7C15
	case record.TypeFloat64:
		return record.Float64ToSortable(v.AsFloat()) * 0x9E3779B97F4A7C15
	case record.TypeString:
		return fnv64([]byte(v.AsString()))
	case record.TypeBytes:
		return fnv64(v.AsBytes())
	case record.TypeBool:
		if v.AsBool() {
			return 0x9E3779B97F4A7C15
		}
		return 0x517CC1B727220A95
	default:
		return 0
	}
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func keyString(row Row, keys []int) string {
	var buf []byte
	for _, k := range keys {
		buf = record.NormalizeValue(buf, row[k])
	}
	return string(buf)
}

func (j *HashJoinRows) run() {
	buildRows := gatherRows(j.build)
	probeRows := gatherRows(j.probe)
	j.joinPartition(buildRows, probeRows, 0)
	j.built = true
}

// gatherRows materializes an input that is drained completely before its
// consumer does anything else, so it is pulled in full batches. The rows
// outlive their batches and are cloned.
func gatherRows(it RowIter) []Row {
	var out []Row
	for {
		b, ok := it.NextBatch(BatchCapacity)
		if !ok {
			return out
		}
		for i, n := 0, b.Len(); i < n; i++ {
			out = append(out, cloneRow(b.Row(i)))
		}
	}
}

// joinPartition joins one partition, recursing with grace partitioning when
// the build side exceeds memory.
func (j *HashJoinRows) joinPartition(build, probe []Row, level int) {
	if len(probe) == 0 || len(build) == 0 {
		return
	}
	buildBytes := int64(len(build)) * int64(j.buildSchema.EncodedSizeEstimate())
	if buildBytes > j.ctx.Budget() && level < 4 {
		// Grace partitioning: spill both sides into fan-out partitions.
		// The spill cost is charged through run writers/readers.
		buildParts := j.partition(build, j.buildSchema, j.buildKeys, level)
		probeParts := j.partition(probe, j.probeSchema, j.probeKeys, level)
		for p := 0; p < HashJoinFanOut; p++ {
			j.joinPartition(buildParts[p], probeParts[p], level+1)
		}
		return
	}
	// In-memory build and probe.
	table := make(map[string][]Row, len(build))
	for _, row := range build {
		j.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		k := keyString(row, j.buildKeys)
		table[k] = append(table[k], row)
	}
	for _, row := range probe {
		j.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		for _, b := range table[keyString(row, j.probeKeys)] {
			out := make(Row, 0, len(b)+len(row))
			out = append(out, b...)
			out = append(out, row...)
			j.ctx.ChargeCPU(simclock.AccountCPU, CostEmit, 1)
			j.results = append(j.results, out)
		}
	}
}

// partition spills rows into fan-out runs by key hash and reads them back,
// charging the full write+read round trip that grace partitioning pays.
func (j *HashJoinRows) partition(rows []Row, schema *record.Schema, keys []int, level int) [][]Row {
	writers := make([]*runWriter, HashJoinFanOut)
	for i := range writers {
		writers[i] = newRunWriter(j.ctx, schema)
	}
	for _, row := range rows {
		p := j.hashKey(row, keys, level) % HashJoinFanOut
		writers[p].write(row)
	}
	out := make([][]Row, HashJoinFanOut)
	for i, w := range writers {
		run := w.finish()
		r := newRunReader(j.ctx, run)
		for {
			row, ok := r.next()
			if !ok {
				break
			}
			out[i] = append(out[i], copyRowVals(row))
		}
		run.drop(j.ctx)
	}
	return out
}

// NextBatch returns up to max joined rows (build columns then probe
// columns).
func (j *HashJoinRows) NextBatch(max int) (*Batch, bool) { return j.fill(j.next, max) }

func (j *HashJoinRows) next() (Row, bool) {
	if !j.built {
		j.run()
	}
	if j.pos >= len(j.results) {
		return nil, false
	}
	r := j.results[j.pos]
	j.pos++
	return r, true
}

// Close closes both inputs.
func (j *HashJoinRows) Close() {
	j.build.Close()
	j.probe.Close()
	j.release()
}
