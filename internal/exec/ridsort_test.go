package exec

import (
	"math/rand"
	"slices"
	"testing"

	"robustmap/internal/storage"
)

// TestRadixSortMatchesSlicesSort checks the radix sort against the
// comparison sort it replaced, at the sizes around a pass's 256 buckets and
// at a table's worth of keys, for keys that share their high bytes (the
// RIDs of one file: those passes are skipped) and for keys that differ in
// every byte (all eight passes run).
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20090104))
	shapes := map[string]func() uint64{
		"all-equal high bytes": func() uint64 { return 7<<48 | rng.Uint64()&0xFFFFFF },
		"every byte differing": rng.Uint64,
	}
	for name, key := range shapes {
		for _, n := range []int{0, 1, 255, 256, 257, 1 << 17} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = key()
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			if got := radixSort(keys, make([]uint64, n)); !slices.Equal(got, want) {
				t.Errorf("%s, %d keys: radix sort differs from slices.Sort", name, n)
			}
		}
	}
}

// TestRIDBufSortOrdersPhysically covers both paths of ridBuf.sort: RIDs that
// pack into 64 bits (radix) and RIDs that do not (comparison fallback).
func TestRIDBufSortOrdersPhysically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, maxPage := range map[string]int64{"packed": 1 << 20, "unpacked": 1 << 40} {
		var b ridBuf
		for i := 0; i < 5000; i++ {
			b.rids = append(b.rids, storage.RID{
				File: storage.FileID(rng.Intn(3)),
				Page: storage.PageNo(rng.Int63n(maxPage)),
				Slot: storage.Slot(rng.Intn(1 << 16)),
			})
		}
		want := slices.Clone(b.rids)
		slices.SortFunc(want, storage.RID.Compare)
		b.sort()
		if !slices.Equal(b.rids, want) {
			t.Errorf("%s RIDs: sort differs from the comparison sort", name)
		}
	}
}
