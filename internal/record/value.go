// Package record defines schemas, typed values, row encoding, and key
// normalization for the storage engine and executor.
//
// Rows travel through the executor as []Value; on disk they are encoded to
// a compact byte format by Schema.Encode. Index keys use a separate
// order-preserving normalized encoding (Normalize) so B-tree pages can
// compare keys with bytes.Compare, the idiom the paper's systems (and every
// production engine) rely on for multi-column indexes and MDAM.
package record

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Type enumerates the column types supported by the engine. The set covers
// everything the TPC-H-like lineitem workload needs.
type Type uint8

const (
	TypeInt64 Type = iota + 1
	TypeFloat64
	TypeString
	TypeBytes
	TypeDate // days since 1970-01-01, stored as int32 range
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBytes:
		return "VARBINARY"
	case TypeDate:
		return "DATE"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Valid reports whether t is a known type.
func (t Type) Valid() bool { return t >= TypeInt64 && t <= TypeBool }

// Value is a single typed column value. The zero Value is NULL.
//
// Layout: a tag, one scalar word and one pointer/length pair — 32 bytes,
// because every row the executor decodes, copies, sorts or hashes moves
// one Value per column. The scalar word holds an int64 or date as is, a
// float64 as its IEEE bits and a bool as 0/1; the pair holds a string, or
// the pointer and length of a bytes payload viewed as a string (its
// capacity is not kept). Only this package reads the fields.
type Value struct {
	typ Type   // 0 means NULL
	n   uint64 // int64, date, float64 bits or bool
	s   string // string payload, or a bytes payload's memory
}

// Null is the NULL value.
var Null = Value{}

// Int returns an int64 value.
func Int(v int64) Value { return Value{typ: TypeInt64, n: uint64(v)} }

// Float returns a float64 value.
func Float(v float64) Value { return Value{typ: TypeFloat64, n: math.Float64bits(v)} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(v string) Value { return Value{typ: TypeString, s: v} }

// Bytes returns a binary value. The slice is not copied; callers must not
// mutate it afterwards.
func Bytes(v []byte) Value {
	return Value{typ: TypeBytes, s: unsafe.String(unsafe.SliceData(v), len(v))}
}

// Date returns a date value expressed as days since the Unix epoch.
func Date(days int64) Value { return Value{typ: TypeDate, n: uint64(days)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{typ: TypeBool, n: 1}
	}
	return Value{typ: TypeBool}
}

// int, float, bytes and bool read the payload words; the caller has
// checked the tag.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) bool() bool     { return v.n != 0 }
func (v Value) bytes() []byte  { return unsafe.Slice(unsafe.StringData(v.s), len(v.s)) }

// Clone returns a copy of the value that shares no memory with arena-backed
// storage: string and bytes payloads are copied onto the heap. Use it when
// retaining a value taken from a batch (see Schema.DecodeArena) beyond the
// batch's lifetime.
func (v Value) Clone() Value {
	if v.typ == TypeString || v.typ == TypeBytes {
		v.s = strings.Clone(v.s)
	}
	return v
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == 0 }

// Type returns the value's type; NULL has type 0.
func (v Value) Type() Type { return v.typ }

// AsInt returns the int64 payload; it panics if the value is not an integer
// or date. Executor code only calls it after schema validation.
func (v Value) AsInt() int64 {
	if v.typ != TypeInt64 && v.typ != TypeDate {
		panic(fmt.Sprintf("record: AsInt on %v", v.typ))
	}
	return v.int()
}

// AsFloat returns the float64 payload, widening integers.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TypeFloat64:
		return v.float()
	case TypeInt64, TypeDate:
		return float64(v.int())
	default:
		panic(fmt.Sprintf("record: AsFloat on %v", v.typ))
	}
}

// AsString returns the string payload.
func (v Value) AsString() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("record: AsString on %v", v.typ))
	}
	return v.s
}

// AsBytes returns the binary payload.
func (v Value) AsBytes() []byte {
	if v.typ != TypeBytes {
		panic(fmt.Sprintf("record: AsBytes on %v", v.typ))
	}
	return v.bytes()
}

// AsBool returns the boolean payload.
func (v Value) AsBool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("record: AsBool on %v", v.typ))
	}
	return v.bool()
}

// String renders the value for debugging and EXPLAIN output.
func (v Value) String() string {
	switch v.typ {
	case 0:
		return "NULL"
	case TypeInt64:
		return strconv.FormatInt(v.int(), 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case TypeString:
		return strconv.Quote(v.s)
	case TypeBytes:
		return fmt.Sprintf("x'%x'", v.s)
	case TypeDate:
		return fmt.Sprintf("date(%d)", v.int())
	case TypeBool:
		return strconv.FormatBool(v.bool())
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.typ))
	}
}

// Compare orders two values. NULL sorts before every non-NULL value (the
// convention of the systems the paper measured). Comparing values of
// different non-NULL types panics: that is a schema bug, not a data
// condition.
func Compare(a, b Value) int {
	if a.typ == 0 || b.typ == 0 {
		switch {
		case a.typ == 0 && b.typ == 0:
			return 0
		case a.typ == 0:
			return -1
		default:
			return 1
		}
	}
	if a.typ != b.typ {
		panic(fmt.Sprintf("record: compare %v with %v", a.typ, b.typ))
	}
	switch a.typ {
	case TypeInt64, TypeDate:
		return cmpInt64(a.int(), b.int())
	case TypeFloat64:
		// Compared as floats, not as bit patterns: NaN is unordered (0
		// against everything) and -0 equals +0.
		af, bf := a.float(), b.float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case TypeString:
		return strings.Compare(a.s, b.s)
	case TypeBytes:
		return bytes.Compare(a.bytes(), b.bytes())
	case TypeBool:
		return cmpInt64(a.int(), b.int())
	default:
		panic(fmt.Sprintf("record: compare on invalid type %v", a.typ))
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Float64FromSortable reverses the order-preserving float encoding; exposed
// for tests of key normalization round trips.
func Float64FromSortable(u uint64) float64 {
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u)
}

// Float64ToSortable maps a float64 to a uint64 whose unsigned order matches
// the float's numeric order (standard IEEE-754 trick).
func Float64ToSortable(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}
