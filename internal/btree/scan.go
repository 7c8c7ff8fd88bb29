package btree

import (
	"bytes"

	"robustmap/internal/storage"
)

// Cursor iterates leaf entries in key order. It is positioned before the
// first entry until Next is called. The key/value slices returned reference
// page memory and must be copied if retained across Next calls.
type Cursor struct {
	tree *Tree
	page storage.PageNo
	node *node
	idx  int
	hi   []byte // exclusive upper bound; nil = unbounded
	done bool
}

// Seek returns a cursor positioned before the first entry with key >= lo.
// If hi is non-nil, iteration stops before the first key >= hi. lo is not
// retained.
func (t *Tree) Seek(lo, hi []byte) *Cursor {
	c := &Cursor{tree: t, hi: hi}
	c.Seek(lo)
	return c
}

// Seek repositions the cursor before the first entry with key >= lo,
// keeping its upper bound: the descent, charges and page accesses of
// Tree.Seek without a new Cursor. lo is not retained.
func (c *Cursor) Seek(lo []byte) {
	t := c.tree
	c.page = t.descendToLeaf(lo, nil)
	c.node = t.readNode(c.page)
	t.chargeSearch(len(c.node.entries))
	c.idx = c.node.searchGE(lo) - 1
	c.done = false
}

// SeekFirst returns a cursor over the whole tree.
func (t *Tree) SeekFirst() *Cursor {
	return t.Seek(nil, nil)
}

// Next advances to the next entry. It returns false at the end of the range.
func (c *Cursor) Next() bool {
	if c.done {
		return false
	}
	c.idx++
	for c.idx >= len(c.node.entries) {
		next := c.node.right
		if next < 0 {
			c.done = true
			return false
		}
		c.page = next
		c.node = c.tree.readNode(next)
		c.idx = 0
	}
	if c.hi != nil && bytes.Compare(c.node.entries[c.idx].key, c.hi) >= 0 {
		c.done = true
		return false
	}
	return true
}

// Key returns the current entry's key. Valid only after a true Next.
func (c *Cursor) Key() []byte { return c.node.entries[c.idx].key }

// Value returns the current entry's value. Valid only after a true Next.
func (c *Cursor) Value() []byte { return c.node.entries[c.idx].val }

// CountRange returns the number of entries in [lo, hi) by scanning. Used by
// tests and by statistics collection; O(range size).
func (t *Tree) CountRange(lo, hi []byte) int64 {
	var n int64
	c := t.Seek(lo, hi)
	for c.Next() {
		n++
	}
	return n
}

// ScanAll invokes fn for every entry in key order; fn returns false to stop.
func (t *Tree) ScanAll(fn func(key, val []byte) bool) {
	c := t.SeekFirst()
	for c.Next() {
		if !fn(c.Key(), c.Value()) {
			return
		}
	}
}

// LeftmostLeaf returns the page number of the first leaf (for tests).
func (t *Tree) LeftmostLeaf() storage.PageNo {
	pg := t.root
	for level := t.height; level > 1; level-- {
		n := t.readNode(pg)
		pg = n.entries[0].child
	}
	return pg
}

// WarmNonLeaf touches every internal page of the tree so subsequent
// descents pay only the leaf read. This models the steady-state condition
// of a production system — upper B-tree levels are effectively always
// resident — which the paper's warm measured systems enjoyed. Returns the
// number of pages touched; callers typically reset the clock afterwards.
func (t *Tree) WarmNonLeaf() int {
	if t.height <= 1 {
		return 0
	}
	touched := 0
	var walk func(pg storage.PageNo, level int)
	walk = func(pg storage.PageNo, level int) {
		n := t.readNode(pg)
		touched++
		if level <= 2 {
			return // children are leaves
		}
		for _, e := range n.entries {
			walk(e.child, level-1)
		}
	}
	walk(t.root, t.height)
	return touched
}
