package btree

import (
	"bytes"
	"fmt"
	"time"

	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// Per-entry CPU costs charged by tree operations, representing comparator
// and copy work. They create the CPU floor that keeps index scans from
// being free when fully cached.
const (
	compareCost = 20 * time.Nanosecond
	decodeCost  = 15 * time.Nanosecond
)

// Tree is a B+tree over opaque byte keys and values. Keys must be unique;
// index layers guarantee that by appending the RID to secondary keys.
type Tree struct {
	pool    *storage.Pool
	clock   *simclock.Clock
	file    storage.FileID
	root    storage.PageNo
	height  int   // 1 = root is a leaf
	entries int64 // live leaf entries

	// cache holds decoded nodes so repeated visits skip re-parsing the
	// page. The page itself is still pinned and unpinned on every visit,
	// so buffer-pool state, I/O charges, and latch charges are exactly
	// those of an uncached tree — the cache saves wall-clock time only.
	// Entries are dropped when their page is re-encoded (writeNode).
	// Trees are per-session objects (never shared across goroutines), so
	// the map needs no locking.
	cache map[storage.PageNo]*node
}

// nodeCacheMax bounds the decoded-node cache. When full the whole cache is
// dropped — crude, but eviction choice cannot matter for correctness and
// trees touched by sweeps refill the hot set within one run.
const nodeCacheMax = 1 << 15

// New creates an empty tree in a fresh file.
func New(pool *storage.Pool, clock *simclock.Clock) *Tree {
	file := pool.Disk().CreateFile()
	root := pool.Disk().AllocPage(file)
	data := pool.Get(file, root)
	encodeNode(data, &node{typ: nodeLeaf, right: -1})
	pool.MarkDirty(file, root)
	pool.Unpin(file, root)
	return &Tree{pool: pool, clock: clock, file: file, root: root, height: 1}
}

// Meta describes a tree's persistent identity, for reopening.
type Meta struct {
	File    storage.FileID
	Root    storage.PageNo
	Height  int
	Entries int64
}

// MetaOf captures the tree's identity.
func MetaOf(t *Tree) Meta {
	return Meta{File: t.file, Root: t.root, Height: t.height, Entries: t.entries}
}

// Open reattaches to an existing tree.
func Open(pool *storage.Pool, clock *simclock.Clock, m Meta) *Tree {
	if !pool.Disk().Exists(m.File) {
		panic(fmt.Sprintf("btree: open of unknown file %d", m.File))
	}
	return &Tree{pool: pool, clock: clock, file: m.File, root: m.Root,
		height: m.Height, entries: m.Entries}
}

// File returns the tree's file id.
func (t *Tree) File() storage.FileID { return t.file }

// Height returns the tree height (1 = single leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.entries }

// NumPages returns the tree's size in pages.
func (t *Tree) NumPages() storage.PageNo { return t.pool.Disk().NumPages(t.file) }

// readNode pins, decodes, and unpins a page. The decoded node references
// page memory that remains valid because the disk shares backing arrays.
func (t *Tree) readNode(pg storage.PageNo) *node {
	data := t.pool.Get(t.file, pg)
	n, ok := t.cache[pg]
	if !ok {
		n = decodeNode(data)
		if t.cache == nil {
			t.cache = make(map[storage.PageNo]*node)
		} else if len(t.cache) >= nodeCacheMax {
			clear(t.cache)
		}
		t.cache[pg] = n
	}
	t.pool.Unpin(t.file, pg)
	t.clock.Advance(simclock.AccountCPU, decodeCost*time.Duration(1+len(n.entries)/16))
	return n
}

// writeNode encodes a node back to its page.
func (t *Tree) writeNode(pg storage.PageNo, n *node) {
	delete(t.cache, pg)
	data := t.pool.Get(t.file, pg)
	encodeNode(data, n)
	t.pool.MarkDirty(t.file, pg)
	t.pool.Unpin(t.file, pg)
}

// descendToLeaf walks from the root to the leaf covering key and returns
// the leaf page. When path is non-nil the internal pages visited, with the
// child indexes taken, are appended to it: only Insert needs them (to
// propagate a split), so the read-only descents pass nil and allocate
// nothing.
func (t *Tree) descendToLeaf(key []byte, path *[]pathStep) storage.PageNo {
	pg := t.root
	for level := t.height; level > 1; level-- {
		n := t.readNode(pg)
		if n.isLeaf() {
			panic("btree: leaf above leaf level")
		}
		i := n.childFor(key)
		t.chargeSearch(len(n.entries))
		if path != nil {
			*path = append(*path, pathStep{page: pg, idx: i})
		}
		pg = n.entries[i].child
	}
	return pg
}

type pathStep struct {
	page storage.PageNo
	idx  int
}

func (t *Tree) chargeSearch(entries int) {
	// Binary search: log2(entries) comparisons.
	steps := 1
	for e := entries; e > 1; e >>= 1 {
		steps++
	}
	t.clock.Advance(simclock.AccountCompare, compareCost*time.Duration(steps))
}

// Get returns the value for key, or ok=false.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	leafPg := t.descendToLeaf(key, nil)
	n := t.readNode(leafPg)
	t.chargeSearch(len(n.entries))
	i := n.searchGE(key)
	if i < len(n.entries) && bytes.Equal(n.entries[i].key, key) {
		return n.entries[i].val, true
	}
	return nil, false
}

// Insert adds a key/value pair. Duplicate keys are rejected with an error —
// uniqueness is an invariant the index layers rely on.
func (t *Tree) Insert(key, val []byte) error {
	if len(key)+len(val) > MaxEntrySize {
		return fmt.Errorf("btree: entry of %d bytes exceeds max %d", len(key)+len(val), MaxEntrySize)
	}
	var path []pathStep
	leafPg := t.descendToLeaf(key, &path)
	n := t.readNode(leafPg)
	t.chargeSearch(len(n.entries))
	i := n.searchGE(key)
	if i < len(n.entries) && bytes.Equal(n.entries[i].key, key) {
		return fmt.Errorf("btree: duplicate key %x", key)
	}
	n.entries = append(n.entries, entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = entry{key: append([]byte(nil), key...), val: append([]byte(nil), val...)}
	t.entries++
	if n.fits() {
		t.writeNode(leafPg, n)
		return nil
	}
	t.splitAndPropagate(leafPg, n, path)
	return nil
}

// Delete removes a key. Returns false if absent. Underflowed nodes are not
// merged: the experiment workloads are read-mostly, and lazy deletion
// matches several production engines.
func (t *Tree) Delete(key []byte) bool {
	leafPg := t.descendToLeaf(key, nil)
	n := t.readNode(leafPg)
	t.chargeSearch(len(n.entries))
	i := n.searchGE(key)
	if i >= len(n.entries) || !bytes.Equal(n.entries[i].key, key) {
		return false
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.writeNode(leafPg, n)
	t.entries--
	return true
}

// splitAndPropagate splits an overflowing node and inserts separators up the
// path, growing the tree at the root if necessary.
func (t *Tree) splitAndPropagate(pg storage.PageNo, n *node, path []pathStep) {
	for {
		mid := len(n.entries) / 2
		rightEntries := append([]entry(nil), n.entries[mid:]...)
		sep := append([]byte(nil), rightEntries[0].key...)

		newPg := t.pool.Disk().AllocPage(t.file)
		rightNode := &node{typ: n.typ, right: n.right, entries: rightEntries}
		if n.isLeaf() {
			n.right = newPg
		} else {
			rightNode.right = -1
		}
		n.entries = n.entries[:mid]
		t.writeNode(newPg, rightNode)
		t.writeNode(pg, n)

		if len(path) == 0 {
			// Split the root: allocate a new root above.
			newRoot := t.pool.Disk().AllocPage(t.file)
			root := &node{typ: nodeInternal, right: -1, entries: []entry{
				{key: nil, child: pg},
				{key: sep, child: newPg},
			}}
			t.writeNode(newRoot, root)
			t.root = newRoot
			t.height++
			return
		}

		parentStep := path[len(path)-1]
		path = path[:len(path)-1]
		parent := t.readNode(parentStep.page)
		i := parentStep.idx + 1
		parent.entries = append(parent.entries, entry{})
		copy(parent.entries[i+1:], parent.entries[i:])
		parent.entries[i] = entry{key: sep, child: newPg}
		if parent.fits() {
			t.writeNode(parentStep.page, parent)
			return
		}
		pg, n = parentStep.page, parent
	}
}

// CheckInvariants walks the whole tree verifying ordering, separator
// correctness, sibling chaining, and the entry count. Tests and the
// property suite call it after mutation storms; it panics on violation.
func (t *Tree) CheckInvariants() {
	var leafCount int64
	var prevKey []byte
	first := true
	var walk func(pg storage.PageNo, level int, lo, hi []byte)
	walk = func(pg storage.PageNo, level int, lo, hi []byte) {
		n := t.readNode(pg)
		if level == 1 != n.isLeaf() {
			panic(fmt.Sprintf("btree: node at level %d has type %d", level, n.typ))
		}
		for i, e := range n.entries {
			if i > 0 && bytes.Compare(n.entries[i-1].key, e.key) >= 0 {
				panic(fmt.Sprintf("btree: unordered entries in page %d", pg))
			}
			if lo != nil && bytes.Compare(e.key, lo) < 0 && !(level > 1 && i == 0) {
				panic(fmt.Sprintf("btree: entry below lower bound in page %d", pg))
			}
			if hi != nil && bytes.Compare(e.key, hi) >= 0 {
				panic(fmt.Sprintf("btree: entry above upper bound in page %d", pg))
			}
		}
		if n.isLeaf() {
			for _, e := range n.entries {
				if !first && bytes.Compare(prevKey, e.key) >= 0 {
					panic("btree: global key order violated across leaves")
				}
				prevKey = append(prevKey[:0], e.key...)
				first = false
				leafCount++
			}
			return
		}
		if len(n.entries) == 0 {
			panic(fmt.Sprintf("btree: empty internal node %d", pg))
		}
		for i, e := range n.entries {
			childLo := e.key
			if i == 0 {
				childLo = lo
			}
			var childHi []byte
			if i+1 < len(n.entries) {
				childHi = n.entries[i+1].key
			} else {
				childHi = hi
			}
			walk(e.child, level-1, childLo, childHi)
		}
	}
	walk(t.root, t.height, nil, nil)
	if leafCount != t.entries {
		panic(fmt.Sprintf("btree: entry count %d, tree says %d", leafCount, t.entries))
	}
}
