package engine

import (
	"fmt"

	"robustmap/internal/datagen"
	"robustmap/internal/record"
)

// multiTable normalises a multi-table Config: each table gets the
// derived join schema and FK-correlated generation, and its int64
// columns are retained in colData for join-size oracles. Indexes come
// from IndexDefs, each bound to its table.
func (s *System) multiTable(cfg Config) ([]tableLoad, []IndexDef, error) {
	if len(cfg.Indexes) > 0 {
		return nil, nil, fmt.Errorf("engine: the Indexes shorthand does not apply to multi-table builds; use IndexDefs")
	}
	rowsOf := map[string]int64{}
	for _, t := range cfg.Tables {
		if t.Name == "" {
			return nil, nil, fmt.Errorf("engine: multi-table build with an unnamed table")
		}
		if _, dup := rowsOf[t.Name]; dup {
			return nil, nil, fmt.Errorf("engine: duplicate table %q", t.Name)
		}
		if t.Rows <= 0 {
			return nil, nil, fmt.Errorf("engine: table %q Rows = %d, want > 0", t.Name, t.Rows)
		}
		rowsOf[t.Name] = t.Rows
	}
	for _, t := range cfg.Tables {
		for _, fk := range t.ForeignKeys {
			if _, ok := rowsOf[fk.RefTable]; !ok {
				return nil, nil, fmt.Errorf("engine: table %q FK %q references unknown table %q", t.Name, fk.Column, fk.RefTable)
			}
		}
	}

	s.colData = make(map[string]map[string][]int64)
	loads := make([]tableLoad, 0, len(cfg.Tables))
	for _, tc := range cfg.Tables {
		fkCols := make([]string, len(tc.ForeignKeys))
		fks := make([]datagen.FKSpec, len(tc.ForeignKeys))
		for i, fk := range tc.ForeignKeys {
			fkCols[i] = fk.Column
			fks[i] = datagen.FKSpec{
				Column: fk.Column, ParentRows: rowsOf[fk.RefTable],
				Containment: fk.Containment, FanoutZipf: fk.FanoutZipf,
			}
		}
		schema := datagen.JoinSchema(tc.Name, fkCols)

		// Retain every int64 column: id, a, b, and the FK columns.
		keep := schema.NumColumns() - 1
		cols := make(map[string][]int64, keep)
		names := make([]string, keep)
		for i := 0; i < keep; i++ {
			names[i] = schema.Column(i).Name
			cols[names[i]] = make([]int64, 0, tc.Rows)
		}
		s.colData[tc.Name] = cols

		spec := datagen.Spec{Rows: tc.Rows, Seed: tc.Seed, PayloadBytes: tc.PayloadBytes,
			ZipfA: tc.ZipfA, ZipfB: tc.ZipfB}
		loads = append(loads, tableLoad{
			name:     tc.Name,
			schema:   schema,
			generate: func(fn func([]record.Value) error) error { return datagen.GenerateTable(spec, fks, fn) },
			capture: func(row []record.Value) {
				for i, name := range names {
					cols[name] = append(cols[name], row[i].AsInt())
				}
			},
		})
	}
	return loads, cfg.IndexDefs, nil
}
