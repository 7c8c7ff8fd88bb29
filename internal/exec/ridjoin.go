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
	out         *ridBuf // the intersection; held from build to Close
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

// Open opens both inputs and forgets any previous run's result.
func (j *RIDMergeIntersect) Open() {
	j.left.Open()
	j.right.Open()
	j.built, j.pos = false, 0
}

// serveRIDs hands out the next up to max RIDs of a materialized result: a
// window onto out, which goes back to the pool at Close.
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
	lb, rb := getRIDBuf(), getRIDBuf()
	lb.gather(j.left)
	rb.gather(j.right)
	sortRIDs(j.ctx, lb)
	sortRIDs(j.ctx, rb)
	j.out = getRIDBuf()
	// Merge, charging one comparison per step.
	l, r := lb.rids, rb.rids
	li, ri := 0, 0
	for li < len(l) && ri < len(r) {
		j.ctx.ChargeCPU(simclock.AccountCompare, CostRIDCompare, 1)
		switch l[li].Compare(r[ri]) {
		case -1:
			li++
		case 1:
			ri++
		default:
			j.out.rids = append(j.out.rids, l[li])
			li++
			ri++
		}
	}
	putRIDBuf(lb)
	putRIDBuf(rb)
	j.built = true
}

// sortRIDs sorts a buffer physically and charges the analytic n log2 n
// RID comparisons of a comparison sort.
func sortRIDs(ctx *Ctx, b *ridBuf) {
	n := len(b.rids)
	if n <= 1 {
		return
	}
	b.sort()
	ctx.ChargeCPU(simclock.AccountSort, CostRIDCompare, int64(n)*int64(bits.Len(uint(n))))
}

// NextRIDBatch serves the materialized intersection, in physical order, in
// slices of up to max RIDs. Emission charges nothing; the intersection
// itself was charged during build.
func (j *RIDMergeIntersect) NextRIDBatch(max int) ([]storage.RID, bool) {
	if !j.built {
		j.build()
	}
	return serveRIDs(j.out.rids, &j.pos, max)
}

// Close closes both inputs and releases the result.
func (j *RIDMergeIntersect) Close() {
	j.left.Close()
	j.right.Close()
	putRIDBuf(j.out)
	j.out = nil
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
	out          *ridBuf // the intersection; held from run to Close
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

// Open opens both inputs and forgets any previous run's result.
func (j *RIDHashIntersect) Open() {
	j.build.Open()
	j.probe.Open()
	j.built, j.pos = false, 0
}

func (j *RIDHashIntersect) run() {
	b, p := getRIDBuf(), getRIDBuf()
	b.gather(j.build)
	p.gather(j.probe)
	j.out = getRIDBuf()
	j.intersect(b.rids, p.rids, 0)
	putRIDBuf(b)
	putRIDBuf(p)
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
			j.out.rids = append(j.out.rids, rid)
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
	return serveRIDs(j.out.rids, &j.pos, max)
}

// Close closes both inputs and releases the result.
func (j *RIDHashIntersect) Close() {
	j.build.Close()
	j.probe.Close()
	putRIDBuf(j.out)
	j.out = nil
}
