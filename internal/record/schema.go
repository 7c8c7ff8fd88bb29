package record

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Column describes one column of a schema.
type Column struct {
	Name string
	Type Type
	// Nullable marks whether the column may hold NULL. The lineitem-like
	// workload is NOT NULL throughout, but the engine supports NULLs.
	Nullable bool
}

// Schema is an ordered list of columns. Schemas are immutable after
// construction.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema; duplicate or empty column names and invalid
// types are construction bugs and panic.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			panic("record: empty column name")
		}
		if !c.Type.Valid() {
			panic(fmt.Sprintf("record: column %q has invalid type", c.Name))
		}
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("record: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Ordinal returns the position of the named column, or -1 if absent.
func (s *Schema) Ordinal(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustOrdinal is Ordinal but panics on a missing column; used when the
// column name comes from engine code rather than user input.
func (s *Schema) MustOrdinal(name string) int {
	i := s.Ordinal(name)
	if i < 0 {
		panic(fmt.Sprintf("record: no column %q in schema %s", name, s))
	}
	return i
}

// Project returns a schema containing only the named columns, in order.
func (s *Schema) Project(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = s.cols[s.MustOrdinal(n)]
	}
	return NewSchema(cols...)
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Validate checks a row against the schema: arity, types, nullability.
func (s *Schema) Validate(row []Value) error {
	if len(row) != len(s.cols) {
		return fmt.Errorf("record: row has %d values, schema %d", len(row), len(s.cols))
	}
	for i, v := range row {
		c := s.cols[i]
		if v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("record: NULL in NOT NULL column %q", c.Name)
			}
			continue
		}
		if v.Type() != c.Type {
			return fmt.Errorf("record: column %q expects %v, got %v", c.Name, c.Type, v.Type())
		}
	}
	return nil
}

// Encode serializes a row to a compact byte representation:
// a null bitmap (one bit per column) followed by each non-null value in
// column order. Variable-length values carry a uvarint length prefix.
// Encode appends to dst and returns the extended slice.
func (s *Schema) Encode(dst []byte, row []Value) ([]byte, error) {
	if err := s.Validate(row); err != nil {
		return dst, err
	}
	nbm := (len(s.cols) + 7) / 8
	start := len(dst)
	for i := 0; i < nbm; i++ {
		dst = append(dst, 0)
	}
	for i, v := range row {
		if v.IsNull() {
			dst[start+i/8] |= 1 << (i % 8)
			continue
		}
		switch s.cols[i].Type {
		case TypeInt64, TypeDate:
			dst = binary.AppendVarint(dst, v.int())
		case TypeFloat64:
			dst = binary.BigEndian.AppendUint64(dst, Float64ToSortable(v.float()))
		case TypeString, TypeBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case TypeBool:
			if v.bool() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst, nil
}

// Decode parses a row previously produced by Encode. It appends values to
// row (pass nil or a reused slice) and returns the filled slice along with
// the number of bytes consumed.
func (s *Schema) Decode(data []byte, row []Value) ([]Value, int, error) {
	nbm := (len(s.cols) + 7) / 8
	if len(data) < nbm {
		return row, 0, errTruncatedBitmap
	}
	bm := data[:nbm]
	off := nbm
	for i := range s.cols {
		if bm[i/8]&(1<<(i%8)) != 0 {
			row = append(row, Null)
			continue
		}
		c := &s.cols[i]
		switch c.Type {
		case TypeInt64, TypeDate:
			v, n := varint(data[off:])
			if n <= 0 {
				return row, 0, c.errBad("varint")
			}
			off += n
			if c.Type == TypeDate {
				row = append(row, Date(v))
			} else {
				row = append(row, Int(v))
			}
		case TypeFloat64:
			if len(data[off:]) < 8 {
				return row, 0, c.errTruncated("float")
			}
			u := binary.BigEndian.Uint64(data[off:])
			off += 8
			row = append(row, Float(Float64FromSortable(u)))
		case TypeString:
			ln, n := uvarint(data[off:])
			if n <= 0 || uint64(len(data[off+n:])) < ln {
				return row, 0, c.errBadVarlen()
			}
			off += n
			row = append(row, String_(string(data[off:off+int(ln)])))
			off += int(ln)
		case TypeBytes:
			ln, n := uvarint(data[off:])
			if n <= 0 || uint64(len(data[off+n:])) < ln {
				return row, 0, c.errBadVarlen()
			}
			off += n
			b := make([]byte, ln)
			copy(b, data[off:off+int(ln)])
			row = append(row, Bytes(b))
			off += int(ln)
		case TypeBool:
			if off >= len(data) {
				return row, 0, c.errTruncated("bool")
			}
			row = append(row, Bool(data[off] != 0))
			off++
		}
	}
	return row, off, nil
}

// EncodedSizeEstimate returns a rough per-row byte size for page budgeting,
// assuming 9 bytes per numeric column and avg 16 bytes per string/bytes.
func (s *Schema) EncodedSizeEstimate() int {
	n := (len(s.cols) + 7) / 8
	for _, c := range s.cols {
		switch c.Type {
		case TypeString, TypeBytes:
			n += 18
		case TypeBool:
			n++
		default:
			n += 9
		}
	}
	return n
}
