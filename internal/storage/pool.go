package storage

import (
	"fmt"
	"time"

	"robustmap/internal/iomodel"
	"robustmap/internal/simclock"
)

// latchCost is the CPU charge for every buffer-pool access, hit or miss.
// It keeps pure-cache workloads from being free, matching the small but
// non-zero CPU floor visible at the left edge of the paper's Figure 1.
const latchCost = 250 * time.Nanosecond

// PoolStats counts buffer-pool activity.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Pins      int64
}

// frame is one buffer-pool slot.
type frame struct {
	file  FileID
	page  PageNo
	data  []byte
	pins  int
	ref   bool // clock reference bit
	dirty bool
}

// Pool is a buffer pool over a Disk. All page access in the engine goes
// through a Pool, which charges virtual time for misses via the Device and
// a small latch cost for every access.
//
// Pool is not safe for concurrent use: each query execution owns one
// engine instance (the paper runs queries serially).
type Pool struct {
	disk   *Disk
	dev    *iomodel.Device
	clock  *simclock.Clock
	frames []frame
	used   int // frames[:used] hold pages; the rest were never claimed
	index  map[pageKey]int
	hand   int
	stats  PoolStats

	// One-entry lookup cache: fetch-heavy operators touch the same page
	// for Get and the immediately following Unpin (and often for runs of
	// consecutive rows), so remembering the last resolved frame skips a
	// map hash on the hot path. Purely an in-memory shortcut: hits still
	// count as pool hits and charge the latch cost.
	lastKey   pageKey
	lastFrame int
	haveLast  bool
}

// lookup resolves a page to its frame index, consulting the one-entry cache
// before the index map. It caches successful resolutions.
func (p *Pool) lookup(key pageKey) (int, bool) {
	if p.haveLast && p.lastKey == key {
		return p.lastFrame, true
	}
	fi, ok := p.index[key]
	if ok {
		p.lastKey, p.lastFrame, p.haveLast = key, fi, true
	}
	return fi, ok
}

type pageKey struct {
	file FileID
	page PageNo
}

// NewPool creates a pool of the given capacity in pages. Capacity must be
// at least 4 (a realistic pool always holds several pages: root, branch,
// leaf, data).
func NewPool(disk *Disk, dev *iomodel.Device, clock *simclock.Clock, capacity int) *Pool {
	if capacity < 4 {
		panic(fmt.Sprintf("storage: pool capacity %d < 4", capacity))
	}
	return &Pool{
		disk:   disk,
		dev:    dev,
		clock:  clock,
		frames: make([]frame, capacity),
		index:  make(map[pageKey]int, capacity),
	}
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return len(p.frames) }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() { p.stats = PoolStats{} }

// Disk exposes the underlying disk for file management.
func (p *Pool) Disk() *Disk { return p.disk }

// Device exposes the cost model device (for prefetch decisions).
func (p *Pool) Device() *iomodel.Device { return p.dev }

// Get pins the page and returns its bytes. The caller must Unpin it.
// A miss charges the device; a hit charges only the latch cost.
func (p *Pool) Get(file FileID, page PageNo) []byte {
	p.clock.Advance(simclock.AccountLatch, latchCost)
	key := pageKey{file, page}
	if fi, ok := p.lookup(key); ok {
		f := &p.frames[fi]
		f.pins++
		f.ref = true
		p.stats.Hits++
		p.stats.Pins++
		return f.data
	}
	p.stats.Misses++
	p.dev.ReadPage(uint32(file), int64(page))
	fi := p.evictAndClaim()
	f := &p.frames[fi]
	f.file, f.page = file, page
	f.data = p.disk.page(file, page)
	f.pins = 1
	f.ref = true
	f.dirty = false
	p.index[key] = fi
	p.lastKey, p.lastFrame, p.haveLast = key, fi, true
	p.stats.Pins++
	return f.data
}

// Unpin releases a pin taken by Get. Unpinning a page that is not pinned
// panics: that is always an iterator lifecycle bug.
func (p *Pool) Unpin(file FileID, page PageNo) {
	fi, ok := p.lookup(pageKey{file, page})
	if !ok || p.frames[fi].pins == 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d:%d", file, page))
	}
	p.frames[fi].pins--
}

// MarkDirty records that the caller modified the page. Dirty pages charge a
// write when evicted (or flushed), pricing spill and build activity.
func (p *Pool) MarkDirty(file FileID, page PageNo) {
	fi, ok := p.lookup(pageKey{file, page})
	if !ok {
		panic(fmt.Sprintf("storage: MarkDirty of non-resident page %d:%d", file, page))
	}
	p.frames[fi].dirty = true
}

// Prefetch declares that the caller is about to read n consecutive pages
// starting at page. Pages already resident in the pool are skipped (real
// engines do not re-read cached pages); the remaining gaps are priced as
// sequential runs by the device, and the subsequent Get calls for them are
// free (already paid). Any read-ahead from a previous Prefetch of the same
// file that was never consumed is discarded first.
func (p *Pool) Prefetch(file FileID, page PageNo, n int) {
	if n <= 0 {
		return
	}
	p.dev.BeginReadAhead(uint32(file))
	runStart := PageNo(-1)
	flush := func(end PageNo) {
		if runStart >= 0 {
			p.dev.Prefetch(uint32(file), int64(runStart), int(end-runStart))
			runStart = -1
		}
	}
	for pg := page; pg < page+PageNo(n); pg++ {
		if p.Resident(file, pg) {
			flush(pg)
			continue
		}
		if runStart < 0 {
			runStart = pg
		}
	}
	flush(page + PageNo(n))
}

// PrefetchUnit returns the device's preferred prefetch size in pages.
func (p *Pool) PrefetchUnit() int { return p.dev.PrefetchUnit() }

// evictAndClaim finds a free frame, evicting with the clock algorithm if
// needed, and returns its index. Frames are claimed in index order and an
// evicted frame is re-claimed by the same Get, so the frames in use are
// always the prefix frames[:used]: a full pool goes straight to the clock
// hand. Panics if every frame is pinned — a pool sized per NewPool's
// minimum cannot deadlock unless iterators leak pins.
func (p *Pool) evictAndClaim() int {
	if p.used < len(p.frames) {
		p.used++
		return p.used - 1
	}
	for sweep := 0; sweep < 2*len(p.frames)+1; sweep++ {
		f := &p.frames[p.hand]
		i := p.hand
		p.hand = (p.hand + 1) % len(p.frames)
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		p.evict(i)
		return i
	}
	panic("storage: all buffer-pool frames pinned")
}

func (p *Pool) evict(i int) {
	f := &p.frames[i]
	if f.dirty {
		// Write-back: the disk already shares the backing array, so only
		// the cost is charged.
		p.dev.WritePage(uint32(f.file), int64(f.page))
	}
	if p.haveLast && p.lastKey == (pageKey{f.file, f.page}) {
		p.haveLast = false
	}
	delete(p.index, pageKey{f.file, f.page})
	p.stats.Evictions++
	*f = frame{}
}

// FlushAll writes back every dirty page and empties the pool. Panics if any
// page is still pinned. Used between experiment runs to return the engine
// to a cold state.
func (p *Pool) FlushAll() {
	for i := range p.frames[:p.used] {
		f := &p.frames[i]
		if f.pins > 0 {
			panic(fmt.Sprintf("storage: FlushAll with pinned page %d:%d", f.file, f.page))
		}
		p.evict(i)
	}
	p.used = 0
	p.hand = 0
}

// Resident reports whether a page is currently cached (for tests).
func (p *Pool) Resident(file FileID, page PageNo) bool {
	_, ok := p.index[pageKey{file, page}]
	return ok
}
