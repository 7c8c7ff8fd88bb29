// Package engine assembles the three database systems of the paper's study
// over a shared synthetic dataset and runs fixed plans against them under
// a deterministic cost model.
//
// The paper measured three commercial systems; we reproduce each system's
// architectural signature (see DESIGN.md):
//
//   - System A: heap table, single-column non-clustered indexes on a and
//     b; traditional and improved fetches; merge and hash index
//     intersection.
//   - System B: MVCC version headers on base rows only, so no index is
//     covering and every plan ends in a bitmap-driven fetch; two-column
//     indexes (a,b) and (b,a) evaluate both predicates on entries first.
//   - System C: two-column covering indexes driven by MDAM.
//
// Every Run gets a fresh virtual clock, device, and cold buffer pool, so
// measurements are deterministic and independent — the conditions the
// paper needs for reproducible robustness maps.
package engine

import (
	"fmt"
	"sync"
	"time"

	"robustmap/internal/btree"
	"robustmap/internal/catalog"
	"robustmap/internal/datagen"
	"robustmap/internal/iomodel"
	"robustmap/internal/mvcc"
	"robustmap/internal/plan"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// MeasurementVersion names the measurement semantics of this engine
// build: bump it whenever a change alters any measured time or row
// count (cost-model constants, operator charge sequences, data
// generation). Persistent stores key their contents on it, so stale
// measurements from an older engine are quarantined instead of being
// replayed into maps the current engine would not reproduce.
const MeasurementVersion = "sim-v1"

// Config parameterizes a system build.
type Config struct {
	// Rows is the lineitem-like table cardinality.
	Rows int64
	// Seed drives data generation.
	Seed int64
	// PayloadBytes pads rows; zero uses the datagen default.
	PayloadBytes int
	// PoolPages is the buffer pool capacity for each query run. It should
	// be well below the table's page count for realistic fetch costs.
	PoolPages int
	// MemoryBudget is the per-query operator memory in bytes.
	MemoryBudget int64
	// IO is the device cost profile.
	IO iomodel.Params
	// Versioned adds MVCC headers to base rows (System B).
	Versioned bool
	// Indexes lists which secondary indexes to build: any of "a", "b",
	// "ab", "ba" — shorthand for the conventional IndexDefs of the
	// paper's study. Ignored when IndexDefs is set.
	Indexes []string
	// IndexDefs generalizes Indexes: arbitrary named secondary indexes
	// over schema columns, in key order. Workload-spec systems build
	// through this.
	IndexDefs []IndexDef
	// TableName overrides the base table's name; empty means the
	// conventional plan.TableName ("lineitem").
	TableName string
	// ZipfA and ZipfB skew the predicate columns (see datagen.Spec); zero
	// keeps the exact-selectivity permutations. Used by the skew ablation.
	ZipfA, ZipfB float64
	// Tables switches the build to a multi-table catalog: each entry is
	// one generated table with the derived join schema (see
	// datagen.JoinSchema). When set, Rows, Seed, PayloadBytes, ZipfA,
	// ZipfB, TableName, and the Indexes shorthand are ignored; indexes
	// come from IndexDefs, each bound to its table.
	Tables []TableConfig
}

// TableConfig parameterizes one table of a multi-table build.
type TableConfig struct {
	Name         string
	Rows         int64
	Seed         int64
	PayloadBytes int
	ZipfA, ZipfB float64
	ForeignKeys  []FKDef
}

// FKDef declares one foreign-key column of a multi-table build,
// referencing RefTable's id column with the given correlation knobs
// (see datagen.FKSpec).
type FKDef struct {
	Column      string
	RefTable    string
	Containment float64
	FanoutZipf  float64
}

// IndexDef names one secondary index to build: its key columns, in
// order. Table binds it to one table of a multi-table build; empty
// means the build's first (or only) table.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string
}

// tableName resolves the configured base-table name.
func (c Config) tableName() string {
	if c.TableName != "" {
		return c.TableName
	}
	return plan.TableName
}

// indexDefs resolves the configured index set: IndexDefs verbatim, or
// the Indexes shorthand mapped onto the conventional definitions.
func (c Config) indexDefs() ([]IndexDef, error) {
	if len(c.IndexDefs) > 0 {
		return c.IndexDefs, nil
	}
	defs := make([]IndexDef, 0, len(c.Indexes))
	for _, s := range c.Indexes {
		switch s {
		case "a":
			defs = append(defs, IndexDef{Name: plan.IdxA, Columns: []string{"a"}})
		case "b":
			defs = append(defs, IndexDef{Name: plan.IdxB, Columns: []string{"b"}})
		case "ab":
			defs = append(defs, IndexDef{Name: plan.IdxAB, Columns: []string{"a", "b"}})
		case "ba":
			defs = append(defs, IndexDef{Name: plan.IdxBA, Columns: []string{"b", "a"}})
		default:
			return nil, fmt.Errorf("engine: unknown index spec %q", s)
		}
	}
	return defs, nil
}

// DefaultConfig returns the experiment defaults: 2^17 rows (the sweeps use
// fractions of the table, as the paper does), a buffer pool of 1/8 of the
// table, 16 MiB of operator memory, and the disk profile.
func DefaultConfig() Config {
	return Config{
		Rows:         1 << 17,
		Seed:         2009,
		PoolPages:    256,
		MemoryBudget: 16 << 20,
		IO:           iomodel.DefaultParams(),
		Indexes:      []string{"a", "b"},
	}
}

// System is one built database system: a shared disk holding the loaded
// table and indexes, plus the metadata to reopen them cheaply per run.
//
// # Concurrency
//
// A System is immutable once BuildSystem returns: every field, including
// the index metadata map, is only read afterwards, and the loaded heap and
// index pages are never written by query runs. All per-run mutable state —
// clock, device, buffer pool, catalog wiring, MVCC store views, spill
// files — lives in a Session, and the shared Disk serializes file-table
// mutation internally (sessions create and drop private spill files during
// runs). Run and NewSession are therefore safe to call from any number of
// goroutines concurrently; each call measures in full isolation.
// (btree.WarmNonLeaf only populates the calling session's pool, and the
// btree encode scratch buffers are a sync.Pool — both shared-safe.)
type System struct {
	Name string
	cfg  Config

	disk      *storage.Disk
	versioned bool
	indexes   map[string]indexMeta
	snapHigh  mvcc.TxnID

	// tables lists the loaded tables in declaration order; a
	// single-table build is a catalog of one. colData retains every
	// generated int64 column of a multi-table build (table -> column ->
	// values in insertion order) for result-size oracles over join
	// queries.
	tables  []tableMeta
	colData map[string]map[string][]int64

	// abPairs holds the generated (a, b) column pairs in row order, so
	// ResultSize can answer "how many rows satisfy this query point"
	// without executing a plan. 16 bytes per row (~2 MiB at the default
	// scale) buys adaptive sweeps an exact row-count oracle for grid
	// cells they never measure.
	abPairs [][2]int64

	// sessions recycles measurement Sessions for RunShared. Recycling is
	// invisible in the results: Session.Run restores the cold-start state.
	sessions sync.Pool
}

type indexMeta struct {
	name     string
	table    string // owning table
	columns  []string
	covering bool
	meta     btree.Meta
}

// tableMeta is one loaded table.
type tableMeta struct {
	name     string
	schema   *record.Schema
	heapFile storage.FileID
	rows     int64
}

// Result is one measured plan execution.
type Result struct {
	Plan     string
	Query    plan.Query
	Rows     int64
	Time     time.Duration
	Accounts map[simclock.Account]time.Duration
	Device   iomodel.Stats
	Pool     storage.PoolStats
}

// tableLoad is one table of a build, normalised from either Config form
// (the single lineitem-like table, or one entry of Config.Tables), so one
// loop loads both.
type tableLoad struct {
	name     string
	schema   *record.Schema
	generate func(fn func(row []record.Value) error) error
	// capture retains, per generated row, what the system's result-size
	// oracles read off the cost model's books.
	capture func(row []record.Value)
}

// singleTable normalises a single-table Config: the fixed lineitem-like
// schema under the configured name, its indexes from the Indexes
// shorthand or IndexDefs, and the (a, b) pairs captured for ResultSize.
func (s *System) singleTable(cfg Config) ([]tableLoad, []IndexDef, error) {
	if cfg.Rows <= 0 {
		return nil, nil, fmt.Errorf("engine: Rows = %d", cfg.Rows)
	}
	defs, err := cfg.indexDefs()
	if err != nil {
		return nil, nil, err
	}
	schema := datagen.Schema()
	ordA, ordB := schema.MustOrdinal("a"), schema.MustOrdinal("b")
	s.abPairs = make([][2]int64, 0, cfg.Rows)
	spec := datagen.Spec{Rows: cfg.Rows, Seed: cfg.Seed, PayloadBytes: cfg.PayloadBytes,
		ZipfA: cfg.ZipfA, ZipfB: cfg.ZipfB}
	return []tableLoad{{
		name:     cfg.tableName(),
		schema:   schema,
		generate: func(fn func([]record.Value) error) error { return datagen.Generate(spec, fn) },
		capture: func(row []record.Value) {
			s.abPairs = append(s.abPairs, [2]int64{row[ordA].AsInt(), row[ordB].AsInt()})
		},
	}}, defs, nil
}

// BuildSystem loads the dataset and indexes for one system configuration:
// one heap per table in declaration order, then every index in definition
// order — so file layout, and therefore every measured time, is a pure
// function of the config. Loading happens on a throwaway clock; only Run
// costs are measured.
func BuildSystem(name string, cfg Config) (*System, error) {
	if err := cfg.IO.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		Name:      name,
		cfg:       cfg,
		disk:      storage.NewDisk(),
		versioned: cfg.Versioned,
		indexes:   make(map[string]indexMeta),
	}
	normalise := sys.singleTable
	if len(cfg.Tables) > 0 {
		normalise = sys.multiTable
	}
	loads, defs, err := normalise(cfg)
	if err != nil {
		return nil, err
	}

	loadClock := simclock.New()
	dev := iomodel.NewDevice(cfg.IO, loadClock)
	// A large pool for loading keeps load-time Go overhead low; run-time
	// pools are sized by cfg.PoolPages.
	pool := storage.NewPool(sys.disk, dev, loadClock, 4096)

	var txn mvcc.TxnID
	if cfg.Versioned {
		txn = mvcc.NewManager().Begin()
		sys.snapHigh = txn
	}

	byName := map[string]*catalog.Table{}
	for _, tl := range loads {
		heap := storage.CreateHeap(pool)
		tbl := &catalog.Table{Name: tl.name, Schema: tl.schema, Heap: heap}
		var store *mvcc.Store
		if cfg.Versioned {
			store = mvcc.NewStore(heap)
			tbl.Versioned = store
		}
		var encodeBuf []byte
		err := tl.generate(func(row []record.Value) error {
			tl.capture(row)
			encodeBuf = encodeBuf[:0]
			var err error
			encodeBuf, err = tl.schema.Encode(encodeBuf, row)
			if err != nil {
				return err
			}
			if store != nil {
				store.Insert(txn, encodeBuf)
			} else {
				heap.Append(encodeBuf)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sys.tables = append(sys.tables, tableMeta{
			name: tl.name, schema: tl.schema, heapFile: heap.File(), rows: heap.NumRows(),
		})
		byName[tl.name] = tbl
	}
	loader := catalog.Loader(pool, loadClock)
	for _, def := range defs {
		if def.Name == "" {
			return nil, fmt.Errorf("engine: index definition with no name")
		}
		if len(def.Columns) == 0 {
			return nil, fmt.Errorf("engine: index %q has no columns", def.Name)
		}
		tname := def.Table
		if tname == "" {
			tname = loads[0].name
		}
		tbl := byName[tname]
		if tbl == nil {
			return nil, fmt.Errorf("engine: index %q references unknown table %q", def.Name, def.Table)
		}
		for _, col := range def.Columns {
			if tbl.Schema.Ordinal(col) < 0 {
				return nil, fmt.Errorf("engine: index %q references unknown column %q of table %q", def.Name, col, tname)
			}
		}
		covering := !cfg.Versioned // MVCC on base rows only: never covering
		ix, err := catalog.BuildIndex(def.Name, tbl, loader, covering, def.Columns...)
		if err != nil {
			return nil, err
		}
		sys.indexes[def.Name] = indexMeta{
			name: def.Name, table: tname, columns: def.Columns, covering: covering, meta: btree.MetaOf(ix.Tree),
		}
	}
	pool.FlushAll()
	return sys, nil
}

// SystemA builds the paper's System A over the default-style config.
func SystemA(cfg Config) (*System, error) {
	cfg.Versioned = false
	cfg.Indexes = []string{"a", "b"}
	return BuildSystem("A", cfg)
}

// SystemB builds System B: MVCC base rows, single- and two-column indexes,
// none covering.
func SystemB(cfg Config) (*System, error) {
	cfg.Versioned = true
	cfg.Indexes = []string{"a", "b", "ab", "ba"}
	return BuildSystem("B", cfg)
}

// SystemC builds System C: covering two-column indexes for MDAM.
func SystemC(cfg Config) (*System, error) {
	cfg.Versioned = false
	cfg.Indexes = []string{"ab", "ba"}
	return BuildSystem("C", cfg)
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Rows returns the cardinality of the first table — the axis table,
// whose cardinality scales the sweep thresholds.
func (s *System) Rows() int64 { return s.tables[0].rows }

// openTable rewires one loaded table to the given pool.
func (s *System) openTable(tm tableMeta, pool *storage.Pool) *catalog.Table {
	heap := storage.OpenHeap(pool, tm.heapFile, tm.rows)
	tbl := &catalog.Table{Name: tm.name, Schema: tm.schema, Heap: heap}
	if s.versioned {
		tbl.Versioned = mvcc.NewStore(heap)
	}
	return tbl
}

// openCatalog rewires the persistent disk objects to a fresh pool/clock.
func (s *System) openCatalog(pool *storage.Pool, clock *simclock.Clock) *catalog.Catalog {
	c := catalog.New()
	byName := map[string]*catalog.Table{}
	for _, tm := range s.tables {
		tbl := s.openTable(tm, pool)
		c.AddTable(tbl)
		byName[tm.name] = tbl
	}
	for _, im := range s.indexes {
		tbl := byName[im.table]
		ords := make([]int, len(im.columns))
		for i, col := range im.columns {
			ords[i] = tbl.Schema.MustOrdinal(col)
		}
		c.AddIndex(&catalog.Index{
			Name: im.name, Table: tbl, Columns: im.columns, Ordinals: ords,
			Tree: btree.Open(pool, clock, im.meta), Covering: im.covering,
		})
	}
	return c
}

// Run executes one plan at one query point on a throwaway Session and
// returns the measured virtual-time result. See Session.Run for the
// measurement conditions. Callers measuring many points should hold a
// Session per goroutine and call its Run instead, which reuses the pool
// frames and catalog wiring.
func (s *System) Run(p plan.Plan, q plan.Query) Result {
	return s.NewSession().Run(p, q)
}

// Disk exposes the system's loaded disk image so specialized experiments
// (e.g., the parallel-scan study) can attach their own per-worker pools.
func (s *System) Disk() *storage.Disk { return s.disk }

// ResultSize returns how many rows satisfy the query point (a < TA, and
// b < TB when TB >= 0) — the exact value every correct plan's execution
// returns as its row count. It consults the generated column data
// directly, off the cost model's books: no clock advances and no pages
// are touched. Adaptive sweeps use it to fill the Rows grid of cells
// they skip, and as an extra cross-check at cells they measure.
func (s *System) ResultSize(q plan.Query) int64 {
	if s.Multi() {
		// A multi-table system has no single-table (a, b) oracle; join
		// result sizes are computed from ColumnData by whoever knows the
		// query semantics (internal/service).
		panic("engine: ResultSize on a multi-table system")
	}
	var n int64
	for _, ab := range s.abPairs {
		if ab[0] < q.TA && (q.TB < 0 || ab[1] < q.TB) {
			n++
		}
	}
	return n
}

// OpenTable rewires the system's base table to the given pool — the
// per-worker view of the parallel experiment. The clock used for index
// access is the pool's own; this accessor exposes the heap only.
func (s *System) OpenTable(pool *storage.Pool) *catalog.Table {
	return s.openTable(s.tables[0], pool)
}

// Multi reports whether the system was built from a multi-table
// catalog.
func (s *System) Multi() bool { return len(s.cfg.Tables) > 0 }

// ColumnData returns one generated int64 column of a multi-table
// system in insertion order (the id, a, b, and foreign-key columns are
// retained at build time), or nil if the system is single-table or the
// column unknown. Like ResultSize it is off the cost model's books.
func (s *System) ColumnData(table, column string) []int64 {
	if s.colData == nil {
		return nil
	}
	return s.colData[table][column]
}

// TableRows returns the system's cardinality for one table, or -1 if
// unknown.
func (s *System) TableRows(table string) int64 {
	for _, tm := range s.tables {
		if tm.name == table {
			return tm.rows
		}
	}
	return -1
}

// HasIndexes reports whether the system has every named index — used by
// experiment definitions to pick runnable plans per system.
func (s *System) HasIndexes(names ...string) bool {
	for _, n := range names {
		if _, ok := s.indexes[n]; !ok {
			return false
		}
	}
	return true
}
