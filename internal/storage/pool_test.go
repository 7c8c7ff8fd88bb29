package storage

import (
	"testing"

	"robustmap/internal/iomodel"
	"robustmap/internal/simclock"
)

func newPool(t *testing.T, capacity int) (*Pool, *simclock.Clock) {
	t.Helper()
	c := simclock.New()
	dev := iomodel.NewDevice(iomodel.DefaultParams(), c)
	return NewPool(NewDisk(), dev, c, capacity), c
}

func TestPoolCapacityMinimum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity < 4")
		}
	}()
	newPool(t, 3)
}

func TestGetMissThenHit(t *testing.T) {
	p, c := newPool(t, 8)
	f := p.Disk().CreateFile()
	p.Disk().AllocPage(f)

	p.Get(f, 0)
	p.Unpin(f, 0)
	missCost := c.Now()
	if missCost == 0 {
		t.Fatal("miss charged nothing")
	}

	before := c.Now()
	p.Get(f, 0)
	p.Unpin(f, 0)
	hitCost := c.Now() - before
	if hitCost >= missCost {
		t.Errorf("hit cost %v not cheaper than miss cost %v", hitCost, missCost)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestPageDataIsShared(t *testing.T) {
	p, _ := newPool(t, 8)
	f := p.Disk().CreateFile()
	p.Disk().AllocPage(f)
	d1 := p.Get(f, 0)
	d1[0] = 0xAB
	p.MarkDirty(f, 0)
	p.Unpin(f, 0)
	d2 := p.Get(f, 0)
	if d2[0] != 0xAB {
		t.Error("modification lost across Get calls")
	}
	p.Unpin(f, 0)
}

func TestEvictionRespectsCapacity(t *testing.T) {
	p, _ := newPool(t, 4)
	f := p.Disk().CreateFile()
	for i := 0; i < 10; i++ {
		p.Disk().AllocPage(f)
	}
	for i := PageNo(0); i < 10; i++ {
		p.Get(f, i)
		p.Unpin(f, i)
	}
	resident := 0
	for i := PageNo(0); i < 10; i++ {
		if p.Resident(f, i) {
			resident++
		}
	}
	if resident > 4 {
		t.Errorf("%d pages resident, capacity 4", resident)
	}
	if p.Stats().Evictions < 6 {
		t.Errorf("Evictions = %d, want >= 6", p.Stats().Evictions)
	}
}

func TestClockKeepsHotPage(t *testing.T) {
	p, _ := newPool(t, 4)
	f := p.Disk().CreateFile()
	for i := 0; i < 12; i++ {
		p.Disk().AllocPage(f)
	}
	// Touch page 0 between every other access: its ref bit stays set, so
	// the clock sweep should preferentially evict the others.
	for i := PageNo(1); i < 12; i++ {
		p.Get(f, 0)
		p.Unpin(f, 0)
		p.Get(f, i)
		p.Unpin(f, i)
	}
	if !p.Resident(f, 0) {
		t.Error("hot page evicted")
	}
}

func TestPinnedPageNotEvicted(t *testing.T) {
	p, _ := newPool(t, 4)
	f := p.Disk().CreateFile()
	for i := 0; i < 8; i++ {
		p.Disk().AllocPage(f)
	}
	p.Get(f, 0) // hold the pin
	for i := PageNo(1); i < 8; i++ {
		p.Get(f, i)
		p.Unpin(f, i)
	}
	if !p.Resident(f, 0) {
		t.Fatal("pinned page evicted")
	}
	p.Unpin(f, 0)
}

func TestAllPinnedPanics(t *testing.T) {
	p, _ := newPool(t, 4)
	f := p.Disk().CreateFile()
	for i := 0; i < 5; i++ {
		p.Disk().AllocPage(f)
	}
	for i := PageNo(0); i < 4; i++ {
		p.Get(f, i) // leak pins
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when all frames pinned")
		}
	}()
	p.Get(f, 4)
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	p, _ := newPool(t, 8)
	f := p.Disk().CreateFile()
	p.Disk().AllocPage(f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Unpin(f, 0)
}

func TestDirtyEvictionChargesWrite(t *testing.T) {
	p, c := newPool(t, 4)
	f := p.Disk().CreateFile()
	for i := 0; i < 8; i++ {
		p.Disk().AllocPage(f)
	}
	p.Get(f, 0)
	p.MarkDirty(f, 0)
	p.Unpin(f, 0)
	for i := PageNo(1); i < 8; i++ { // force eviction of page 0
		p.Get(f, i)
		p.Unpin(f, i)
	}
	if c.Spent(simclock.AccountSpillIO) == 0 {
		t.Error("dirty eviction charged no write cost")
	}
	if p.Device().Stats().PagesWritten == 0 {
		t.Error("dirty eviction wrote no pages")
	}
}

func TestFlushAllEmptiesPool(t *testing.T) {
	p, _ := newPool(t, 8)
	f := p.Disk().CreateFile()
	for i := 0; i < 4; i++ {
		p.Disk().AllocPage(f)
		p.Get(f, PageNo(i))
		p.Unpin(f, PageNo(i))
	}
	p.FlushAll()
	for i := PageNo(0); i < 4; i++ {
		if p.Resident(f, i) {
			t.Errorf("page %d resident after FlushAll", i)
		}
	}
}

func TestPrefetchMakesScanSequentialPrice(t *testing.T) {
	p, c := newPool(t, 8)
	f := p.Disk().CreateFile()
	const n = 128
	for i := 0; i < n; i++ {
		p.Disk().AllocPage(f)
	}
	p.Prefetch(f, 0, n)
	for i := PageNo(0); i < n; i++ {
		p.Get(f, i)
		p.Unpin(f, i)
	}
	params := p.Device().Params()
	// One seek for the prefetch unit plus n transfers plus latch costs; far
	// below n random reads.
	if c.Now() > params.RandomCost(8) {
		t.Errorf("prefetched scan cost %v, want well below 8 random reads %v",
			c.Now(), params.RandomCost(8))
	}
}

// TestFullPoolMissStartsAtHand pins where a miss on a full pool looks for
// its frame: at the clock hand, inspecting nothing before it. The frame
// before the hand is made to look never-claimed; a search for a free frame
// — which a full pool has no reason to make, and which used to walk every
// frame on every miss — would take it.
func TestFullPoolMissStartsAtHand(t *testing.T) {
	p, _ := newPool(t, 4)
	f := p.Disk().CreateFile()
	for i := 0; i < 6; i++ {
		p.Disk().AllocPage(f)
	}
	for pg := PageNo(0); pg < 5; pg++ { // page 4 evicts frame 0; the hand moves to 1
		p.Get(f, pg)
		p.Unpin(f, pg)
	}
	if p.used != 4 || p.hand != 1 {
		t.Fatalf("used = %d, hand = %d after filling the pool and one eviction, want 4 and 1", p.used, p.hand)
	}
	delete(p.index, pageKey{f, 4})
	p.frames[0] = frame{}
	p.haveLast = false

	p.Get(f, 5)
	p.Unpin(f, 5)
	if fi := p.index[pageKey{f, 5}]; fi != 1 {
		t.Errorf("miss on a full pool claimed frame %d, want the hand's frame 1", fi)
	}
	if p.hand != 2 {
		t.Errorf("hand = %d after the miss, want 2", p.hand)
	}
	if s := p.Stats(); s.Misses != 6 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 6 misses and 2 evictions", s)
	}
}
