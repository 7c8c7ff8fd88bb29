package exec

import (
	"math/bits"

	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// RID intersection joins combine two secondary-index scans on the same
// table into the set of rows satisfying both predicates — the "multi-index
// plans that join non-clustered indexes" of Figure 2 and the two-index
// merge join of Figure 5.

// RIDMergeIntersect materializes both RID inputs, sorts each into physical
// order, and merges. Its cost is symmetric in the two inputs — the symmetry
// the paper points out in Figure 5 ("the symmetry in this diagram indicates
// that the two dimensions have very similar effects"). Output is in
// ascending RID order.
type RIDMergeIntersect struct {
	ctx         *Ctx
	left, right RIDIter
	out         []storage.RID
	pos         int
	built       bool
}

// NewRIDMergeIntersect constructs the merge-based intersection. The two
// "join orders" of the paper are represented by swapping left and right —
// the costs are identical by construction, which is why several plans share
// optimality regions in Figure 10.
func NewRIDMergeIntersect(ctx *Ctx, left, right RIDIter) *RIDMergeIntersect {
	return &RIDMergeIntersect{ctx: ctx, left: left, right: right}
}

// Open opens both inputs.
func (j *RIDMergeIntersect) Open() {
	j.left.Open()
	j.right.Open()
}

// gatherRIDs drains a RID input. Both intersections consume their inputs
// completely before producing anything, so they pull full sub-batches.
func gatherRIDs(it RIDIter) []storage.RID {
	var out []storage.RID
	for {
		rids, ok := it.NextRIDBatch(ridBatchCap)
		if !ok {
			return out
		}
		out = append(out, rids...)
	}
}

// serveRIDs hands out the next up to max RIDs of a materialized result.
func serveRIDs(out []storage.RID, pos *int, max int) ([]storage.RID, bool) {
	if *pos >= len(out) {
		return nil, false
	}
	end := *pos + max
	if end > len(out) {
		end = len(out)
	}
	rids := out[*pos:end]
	*pos = end
	return rids, true
}

func (j *RIDMergeIntersect) build() {
	l := gatherRIDs(j.left)
	r := gatherRIDs(j.right)
	sortRIDs(j.ctx, l)
	sortRIDs(j.ctx, r)
	// Merge, charging one comparison per step.
	li, ri := 0, 0
	for li < len(l) && ri < len(r) {
		j.ctx.ChargeCPU(simclock.AccountCompare, CostRIDCompare, 1)
		switch l[li].Compare(r[ri]) {
		case -1:
			li++
		case 1:
			ri++
		default:
			j.out = append(j.out, l[li])
			li++
			ri++
		}
	}
	j.built = true
}

func sortRIDs(ctx *Ctx, rids []storage.RID) {
	n := len(rids)
	if n <= 1 {
		return
	}
	// RIDs are unique, so any comparison sort yields the same permutation.
	sortRIDsInPlace(rids, nil)
	ctx.ChargeCPU(simclock.AccountSort, CostRIDCompare, int64(n)*int64(bits.Len(uint(n))))
}

// NextRIDBatch serves the materialized intersection, in physical order, in
// slices of up to max RIDs. Emission charges nothing; the intersection
// itself was charged during build.
func (j *RIDMergeIntersect) NextRIDBatch(max int) ([]storage.RID, bool) {
	if !j.built {
		j.build()
	}
	return serveRIDs(j.out, &j.pos, max)
}

// Close closes both inputs.
func (j *RIDMergeIntersect) Close() {
	j.left.Close()
	j.right.Close()
}

// RIDHashIntersect builds a hash set from the build input and probes it
// with the probe input. If the build set exceeds the memory budget, both
// inputs are grace-partitioned to spill files and the partitions are
// intersected pairwise.
//
// Cost is therefore asymmetric under memory pressure: a small build side
// fits in memory while a large one forces both sides through a disk round
// trip — the asymmetry the paper contrasts with Figure 5's symmetric merge
// join ("Hash join plans perform better in some cases but do not exhibit
// this symmetry"). Output order follows the probe input within each
// partition.
type RIDHashIntersect struct {
	ctx          *Ctx
	build, probe RIDIter
	out          []storage.RID
	pos          int
	built        bool
}

// ridHashFanOut is the grace-partitioning fan-out.
const ridHashFanOut = 8

// NewRIDHashIntersect constructs the hash-based intersection; build should
// be the smaller input for the cheaper plan, but both orders are legal
// plans (the paper runs both).
func NewRIDHashIntersect(ctx *Ctx, build, probe RIDIter) *RIDHashIntersect {
	return &RIDHashIntersect{ctx: ctx, build: build, probe: probe}
}

// Open opens both inputs.
func (j *RIDHashIntersect) Open() {
	j.build.Open()
	j.probe.Open()
}

func (j *RIDHashIntersect) run() {
	b := gatherRIDs(j.build)
	p := gatherRIDs(j.probe)
	j.intersect(b, p, 0)
	j.built = true
}

func (j *RIDHashIntersect) intersect(build, probe []storage.RID, level int) {
	if len(build) == 0 || len(probe) == 0 {
		return
	}
	if int64(len(build))*RIDMemBytes > j.ctx.Budget() && level < 4 {
		// Grace partitioning: both sides spill to disk and come back.
		bParts := j.partitionRIDs(build, level)
		pParts := j.partitionRIDs(probe, level)
		for i := 0; i < ridHashFanOut; i++ {
			j.intersect(bParts[i], pParts[i], level+1)
		}
		return
	}
	set := make(map[storage.RID]struct{}, len(build))
	for _, rid := range build {
		j.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		set[rid] = struct{}{}
	}
	for _, rid := range probe {
		j.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		if _, hit := set[rid]; hit {
			j.out = append(j.out, rid)
		}
	}
}

// partitionRIDs spills RIDs into fan-out partition files and reads them
// back, charging the sequential write+read round trip grace partitioning
// pays. 512 RIDs fit one 8 KiB page.
func (j *RIDHashIntersect) partitionRIDs(rids []storage.RID, level int) [][]storage.RID {
	const ridsPerPage = storage.PageSize / RIDMemBytes
	out := make([][]storage.RID, ridHashFanOut)
	disk := j.ctx.Pool.Disk()
	dev := j.ctx.Pool.Device()
	files := make([]storage.FileID, ridHashFanOut)
	for i := range files {
		files[i] = disk.CreateFile()
	}
	for _, rid := range rids {
		j.ctx.ChargeCPU(simclock.AccountHash, CostHashOp, 1)
		p := int(ridHash(rid, level) % ridHashFanOut)
		out[p] = append(out[p], rid)
	}
	// Charge the spill traffic: each partition is written and read back
	// sequentially in whole pages.
	for i, part := range out {
		pages := (len(part) + ridsPerPage - 1) / ridsPerPage
		for pg := 0; pg < pages; pg++ {
			disk.AllocPage(files[i])
			dev.WritePage(uint32(files[i]), int64(pg))
		}
		for pg := 0; pg < pages; pg++ {
			dev.ReadPage(uint32(files[i]), int64(pg))
		}
		disk.DropFile(files[i])
	}
	return out
}

func ridHash(rid storage.RID, level int) uint64 {
	h := uint64(rid.File)*0x9E3779B97F4A7C15 ^ uint64(rid.Page)*1099511628211 ^ uint64(rid.Slot)
	h ^= uint64(level) * 0x517CC1B727220A95
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// NextRIDBatch serves the materialized intersection in slices of up to max
// RIDs.
func (j *RIDHashIntersect) NextRIDBatch(max int) ([]storage.RID, bool) {
	if !j.built {
		j.run()
	}
	return serveRIDs(j.out, &j.pos, max)
}

// Close closes both inputs.
func (j *RIDHashIntersect) Close() {
	j.build.Close()
	j.probe.Close()
}
