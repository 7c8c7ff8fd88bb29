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
	"fmt"
	"math"
	"strconv"
	"strings"
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
type Value struct {
	typ  Type // 0 means NULL
	i    int64
	f    float64
	s    string
	b    []byte
	bool bool
}

// Null is the NULL value.
var Null = Value{}

// Int returns an int64 value.
func Int(v int64) Value { return Value{typ: TypeInt64, i: v} }

// Float returns a float64 value.
func Float(v float64) Value { return Value{typ: TypeFloat64, f: v} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(v string) Value { return Value{typ: TypeString, s: v} }

// Bytes returns a binary value. The slice is not copied; callers must not
// mutate it afterwards.
func Bytes(v []byte) Value { return Value{typ: TypeBytes, b: v} }

// Date returns a date value expressed as days since the Unix epoch.
func Date(days int64) Value { return Value{typ: TypeDate, i: days} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{typ: TypeBool, bool: v} }

// Clone returns a copy of the value that shares no memory with arena-backed
// storage: string and bytes payloads are copied onto the heap. Use it when
// retaining a value taken from a batch (see Schema.DecodeArena) beyond the
// batch's lifetime.
func (v Value) Clone() Value {
	switch v.typ {
	case TypeString:
		v.s = strings.Clone(v.s)
	case TypeBytes:
		v.b = append([]byte(nil), v.b...)
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
	return v.i
}

// AsFloat returns the float64 payload, widening integers.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TypeFloat64:
		return v.f
	case TypeInt64, TypeDate:
		return float64(v.i)
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
	return v.b
}

// AsBool returns the boolean payload.
func (v Value) AsBool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("record: AsBool on %v", v.typ))
	}
	return v.bool
}

// String renders the value for debugging and EXPLAIN output.
func (v Value) String() string {
	switch v.typ {
	case 0:
		return "NULL"
	case TypeInt64:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return strconv.Quote(v.s)
	case TypeBytes:
		return fmt.Sprintf("x'%x'", v.b)
	case TypeDate:
		return fmt.Sprintf("date(%d)", v.i)
	case TypeBool:
		return strconv.FormatBool(v.bool)
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
		return cmpInt64(a.i, b.i)
	case TypeFloat64:
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		default:
			return 0
		}
	case TypeString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	case TypeBytes:
		return compareBytes(a.b, b.b)
	case TypeBool:
		switch {
		case !a.bool && b.bool:
			return -1
		case a.bool && !b.bool:
			return 1
		default:
			return 0
		}
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

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt64(int64(len(a)), int64(len(b)))
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
