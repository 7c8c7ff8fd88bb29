package exec

import (
	"slices"
	"sync"

	"robustmap/internal/storage"
)

// ridBuf is a growable RID slice together with the scratch its physical
// sort needs. Every operator that accumulates RIDs — the index scans'
// output windows, the fetches' batches, the intersections' inputs and
// results — holds ridBufs with the lifecycle of a Batch: taken from
// ridBufPool at Open (or at the first build), returned at Close, so a cell
// grows no RID slice from nil and, once the pool is warm, allocates none.
type ridBuf struct {
	rids      []storage.RID
	keys, tmp []uint64 // packed sort keys and the radix sort's second buffer
}

// ridBufPool follows batchPool's rule: a buffer belongs to one operator
// from get to put and is never shared between goroutines while in use.
var ridBufPool = sync.Pool{New: func() any { return new(ridBuf) }}

func getRIDBuf() *ridBuf {
	b := ridBufPool.Get().(*ridBuf)
	b.rids = b.rids[:0]
	return b
}

func putRIDBuf(b *ridBuf) {
	if b != nil {
		ridBufPool.Put(b)
	}
}

// gather appends the whole of a RID input. The operators that use it
// consume their inputs completely before producing anything, so they pull
// full sub-batches.
func (b *ridBuf) gather(it RIDIter) {
	for {
		rids, ok := it.NextRIDBatch(ridBatchCap)
		if !ok {
			return
		}
		b.rids = append(b.rids, rids...)
	}
}

// sort sorts the buffer into ascending physical order. When every RID fits
// the packed 16-bit-file / 32-bit-page / 16-bit-slot form — always, for the
// data sizes the experiments build — it radix-sorts packed uint64 keys,
// which costs no comparison at all. RIDs are unique, so every correct sort
// produces the same permutation; callers charge the analytic n·⌈log₂ n⌉
// comparisons themselves, so the physical algorithm is not observable in
// virtual time.
func (b *ridBuf) sort() {
	rids := b.rids
	b.keys = b.keys[:0]
	for _, r := range rids {
		if r.File >= 1<<16 || r.Page < 0 || r.Page >= 1<<32 {
			slices.SortFunc(rids, storage.RID.Compare)
			return
		}
		b.keys = append(b.keys, uint64(r.File)<<48|uint64(r.Page)<<16|uint64(r.Slot))
	}
	b.tmp = slices.Grow(b.tmp[:0], len(rids))[:len(rids)]
	for i, k := range radixSort(b.keys, b.tmp) {
		rids[i] = storage.RID{
			File: storage.FileID(k >> 48),
			Page: storage.PageNo(k >> 16 & 0xFFFFFFFF),
			Slot: storage.Slot(k & 0xFFFF),
		}
	}
}

// radixSort sorts keys ascending with a least-significant-digit radix sort
// over the bytes in which the keys differ (the RIDs of one table share
// their file bytes and most of their high page bytes, so three or four
// passes are typical). tmp must be as long as keys; the passes alternate
// between the two slices and the one holding the result is returned.
func radixSort(keys, tmp []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xFF == 0 {
			continue
		}
		var count [256]int
		for _, k := range keys {
			count[k>>shift&0xFF]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, k := range keys {
			d := k >> shift & 0xFF
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
