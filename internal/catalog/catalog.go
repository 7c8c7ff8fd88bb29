// Package catalog holds table and index metadata plus the statistics that
// experiments and examples report (row counts, page counts, index heights).
//
// There is deliberately no cost-based optimizer on top: the paper fixes
// query execution plans with hints, and internal/plan builds them directly
// from catalog objects.
package catalog

import (
	"bytes"
	"fmt"
	"sort"

	"robustmap/internal/btree"
	"robustmap/internal/mvcc"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// Table is a base table stored in a heap file. If Versioned is non-nil the
// heap rows carry MVCC headers (the paper's System B architecture) and all
// reads must go through it.
type Table struct {
	Name      string
	Schema    *record.Schema
	Heap      *storage.HeapFile
	Versioned *mvcc.Store // nil for unversioned systems
}

// RowPayload extracts the row bytes from a stored heap record, stripping
// the MVCC header when present.
func (t *Table) RowPayload(rec []byte) []byte {
	if t.Versioned != nil {
		_, payload := mvcc.DecodeHeader(rec)
		return payload
	}
	return rec
}

// NumRows returns the table cardinality.
func (t *Table) NumRows() int64 { return t.Heap.NumRows() }

// NumPages returns the heap size in pages.
func (t *Table) NumPages() storage.PageNo { return t.Heap.NumPages() }

// Index is a secondary B-tree index. Keys are the normalized column values
// with the RID appended (making every key unique); values are the encoded
// RID. Covering reports whether the engine may answer queries from the
// index alone — false on versioned tables, where visibility lives only in
// the base row (System B).
type Index struct {
	Name     string
	Table    *Table
	Columns  []string
	Ordinals []int
	Tree     *btree.Tree
	Covering bool
}

// KeyFor builds the normalized index key for the given row and rid.
func (ix *Index) KeyFor(row []record.Value, rid storage.RID) []byte {
	key := make([]byte, 0, 24)
	for _, o := range ix.Ordinals {
		key = record.NormalizeValue(key, row[o])
	}
	return AppendRID(key, rid)
}

// PrefixFor builds the normalized key prefix for a tuple of column values
// (no RID suffix) — the form used as a range-scan bound.
func (ix *Index) PrefixFor(vals ...record.Value) []byte {
	if len(vals) > len(ix.Columns) {
		panic(fmt.Sprintf("catalog: %d bound values for %d-column index", len(vals), len(ix.Columns)))
	}
	return record.Normalize(nil, vals...)
}

// AppendRID appends the fixed-width physical-order encoding of rid.
func AppendRID(key []byte, rid storage.RID) []byte {
	key = append(key,
		byte(rid.File>>24), byte(rid.File>>16), byte(rid.File>>8), byte(rid.File))
	p := uint64(rid.Page)
	key = append(key,
		byte(p>>56), byte(p>>48), byte(p>>40), byte(p>>32),
		byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
	return append(key, byte(rid.Slot>>8), byte(rid.Slot))
}

// RIDSuffixLen is the byte length AppendRID adds.
const RIDSuffixLen = 14

// DecodeRIDSuffix extracts the RID from the last RIDSuffixLen bytes of key.
func DecodeRIDSuffix(key []byte) storage.RID {
	if len(key) < RIDSuffixLen {
		panic(fmt.Sprintf("catalog: key of %d bytes has no RID suffix", len(key)))
	}
	s := key[len(key)-RIDSuffixLen:]
	file := storage.FileID(uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3]))
	var p uint64
	for i := 4; i < 12; i++ {
		p = p<<8 | uint64(s[i])
	}
	slot := storage.Slot(uint16(s[12])<<8 | uint16(s[13]))
	return storage.RID{File: file, Page: storage.PageNo(p), Slot: slot}
}

// Catalog is a named collection of tables and indexes.
type Catalog struct {
	tables  map[string]*Table
	indexes map[string]*Index
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table), indexes: make(map[string]*Index)}
}

// AddTable registers a table; duplicate names panic (engine construction bug).
func (c *Catalog) AddTable(t *Table) {
	if _, dup := c.tables[t.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate table %q", t.Name))
	}
	c.tables[t.Name] = t
}

// AddIndex registers an index.
func (c *Catalog) AddIndex(ix *Index) {
	if _, dup := c.indexes[ix.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate index %q", ix.Name))
	}
	c.indexes[ix.Name] = ix
}

// Table returns a table by name; missing tables panic — plan construction
// uses engine-defined names only.
func (c *Catalog) Table(name string) *Table {
	t, ok := c.tables[name]
	if !ok {
		panic(fmt.Sprintf("catalog: no table %q", name))
	}
	return t
}

// Index returns an index by name.
func (c *Catalog) Index(name string) *Index {
	ix, ok := c.indexes[name]
	if !ok {
		panic(fmt.Sprintf("catalog: no index %q", name))
	}
	return ix
}

// HasIndex reports whether an index exists.
func (c *Catalog) HasIndex(name string) bool {
	_, ok := c.indexes[name]
	return ok
}

// IndexNames returns all index names, sorted (deterministic listings).
func (c *Catalog) IndexNames() []string {
	out := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IndexesOn returns the indexes of a table, sorted by name.
func (c *Catalog) IndexesOn(table string) []*Index {
	var out []*Index
	for _, n := range c.IndexNames() {
		if c.indexes[n].Table.Name == table {
			out = append(out, c.indexes[n])
		}
	}
	return out
}

// BuildIndex bulk-loads a secondary index over a table's current contents.
// The entries are collected in memory, sorted, and bulk-loaded — the
// standard offline index build.
func BuildIndex(name string, t *Table, tree treeLoader,
	covering bool, columns ...string) (*Index, error) {

	ords := make([]int, len(columns))
	for i, col := range columns {
		ords[i] = t.Schema.MustOrdinal(col)
	}
	ix := &Index{Name: name, Table: t, Columns: columns, Ordinals: ords, Covering: covering}

	type kv struct{ k, v []byte }
	var entries []kv
	row := make([]record.Value, 0, t.Schema.NumColumns())
	collect := func(rid storage.RID, payload []byte) bool {
		row = row[:0]
		var err error
		row, _, err = t.Schema.Decode(payload, row)
		if err != nil {
			panic(fmt.Sprintf("catalog: corrupt row at %v: %v", rid, err))
		}
		var ridVal [RIDSuffixLen]byte
		entries = append(entries, kv{k: ix.KeyFor(row, rid), v: AppendRID(ridVal[:0], rid)})
		return true
	}
	if t.Versioned != nil {
		t.Versioned.ScanVisible(mvcc.Snapshot{High: ^mvcc.TxnID(0)}, collect)
	} else {
		t.Heap.Scan(func(rid storage.RID, rec []byte) bool { return collect(rid, rec) })
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].k, entries[j].k) < 0
	})
	i := 0
	tr, err := tree(func() ([]byte, []byte, bool) {
		if i >= len(entries) {
			return nil, nil, false
		}
		e := entries[i]
		i++
		return e.k, e.v, true
	})
	if err != nil {
		return nil, err
	}
	ix.Tree = tr
	return ix, nil
}

// treeLoader abstracts btree.BulkLoad so BuildIndex call sites pass the
// pool and clock once.
type treeLoader func(next func() ([]byte, []byte, bool)) (*btree.Tree, error)

// Loader adapts btree.BulkLoad into a treeLoader.
func Loader(pool *storage.Pool, clock *simclock.Clock) treeLoader {
	return func(next func() ([]byte, []byte, bool)) (*btree.Tree, error) {
		return btree.BulkLoad(pool, clock, btree.DefaultFillFactor, next)
	}
}
