package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// DecodeArena parses a row previously produced by Encode, like Decode, but
// backs variable-length values (strings, bytes) with the caller-supplied
// arena instead of per-value heap allocations. It appends values to row and
// bytes to arena, returning both extended slices and the number of encoded
// bytes consumed.
//
// Ownership: values decoded this way alias the arena. They are valid only
// until the caller truncates or reuses the arena — the batch-execution
// contract (a batch's rows are valid until the next NextBatch call). Callers
// that retain a value beyond that window must Clone it. If the arena's
// backing array grows mid-decode, previously decoded values keep referencing
// the old array, which the garbage collector keeps alive through them.
func (s *Schema) DecodeArena(data []byte, row []Value, arena []byte) ([]Value, []byte, int, error) {
	return s.DecodeArenaCols(data, 0, len(s.cols), 0, row, arena)
}

// DecodeArenaCols is DecodeArena for the columns [from, to) only, so a
// reader can decode the columns its predicates need, test them, and
// materialize the rest of the row only if it qualifies. off is where column
// from starts: the offset a previous call that stopped at from returned
// (ignored when from is 0, where the null bitmap is checked instead). The
// offset returned is where column to starts. A row abandoned part-way must
// still have its remaining columns checked with ValidateCols, or a corrupt
// record passes unnoticed.
func (s *Schema) DecodeArenaCols(data []byte, from, to, off int, row []Value, arena []byte) ([]Value, []byte, int, error) {
	nbm := (len(s.cols) + 7) / 8
	if from == 0 {
		if len(data) < nbm {
			return row, arena, 0, errTruncatedBitmap
		}
		off = nbm
	}
	bm := data[:nbm]
	for i := from; i < to; i++ {
		if bm[uint(i)>>3]&(1<<(uint(i)&7)) != 0 {
			row = append(row, Null)
			continue
		}
		c := &s.cols[i]
		switch c.Type {
		case TypeInt64, TypeDate:
			v, n := varint(data[off:])
			if n <= 0 {
				return row, arena, 0, c.errBad("varint")
			}
			off += n
			row = append(row, Value{typ: c.Type, n: uint64(v)})
		case TypeFloat64:
			if len(data[off:]) < 8 {
				return row, arena, 0, c.errTruncated("float")
			}
			u := binary.BigEndian.Uint64(data[off:])
			off += 8
			row = append(row, Float(Float64FromSortable(u)))
		case TypeString, TypeBytes:
			ln, n := uvarint(data[off:])
			if n <= 0 || uint64(len(data[off+n:])) < ln {
				return row, arena, 0, c.errBadVarlen()
			}
			off += n
			var ref string
			if ln > 0 {
				start := len(arena)
				arena = append(arena, data[off:off+int(ln)]...)
				ref = unsafe.String(&arena[start], int(ln))
			}
			row = append(row, Value{typ: c.Type, s: ref})
			off += int(ln)
		case TypeBool:
			if off >= len(data) {
				return row, arena, 0, c.errTruncated("bool")
			}
			row = append(row, Bool(data[off] != 0))
			off++
		}
	}
	return row, arena, off, nil
}

// ValidateCols walks the encoded columns [from, NumColumns) of data, whose
// column from starts at off (see DecodeArenaCols), applying the bounds
// tests DecodeArena applies and reporting the error it would report. It
// writes no Value and copies no bytes: it is what a reader owes the tail of
// a row it rejected on a decoded prefix. It returns the encoded length.
func (s *Schema) ValidateCols(data []byte, from, off int) (int, error) {
	nbm := (len(s.cols) + 7) / 8
	if from == 0 {
		if len(data) < nbm {
			return 0, errTruncatedBitmap
		}
		off = nbm
	}
	bm := data[:nbm]
	for i := from; i < len(s.cols); i++ {
		if bm[uint(i)>>3]&(1<<(uint(i)&7)) != 0 {
			continue
		}
		c := &s.cols[i]
		switch c.Type {
		case TypeInt64, TypeDate:
			_, n := varint(data[off:])
			if n <= 0 {
				return 0, c.errBad("varint")
			}
			off += n
		case TypeFloat64:
			if len(data[off:]) < 8 {
				return 0, c.errTruncated("float")
			}
			off += 8
		case TypeString, TypeBytes:
			ln, n := uvarint(data[off:])
			if n <= 0 || uint64(len(data[off+n:])) < ln {
				return 0, c.errBadVarlen()
			}
			off += n + int(ln)
		case TypeBool:
			if off >= len(data) {
				return 0, c.errTruncated("bool")
			}
			off++
		}
	}
	return off, nil
}

// The decode errors, shared by Decode, DecodeArenaCols and ValidateCols so
// the three report a corrupt record in the same words.
var errTruncatedBitmap = errors.New("record: truncated null bitmap")

func (c *Column) errBad(what string) error {
	return fmt.Errorf("record: bad %s in column %q", what, c.Name)
}

func (c *Column) errTruncated(what string) error {
	return fmt.Errorf("record: truncated %s in column %q", what, c.Name)
}

func (c *Column) errBadVarlen() error {
	if c.Type == TypeBytes {
		return c.errBad("bytes")
	}
	return c.errBad("string")
}
