package record

import (
	"encoding/binary"
	"fmt"
)

// Key normalization: order-preserving byte encodings for index keys.
//
// B-tree pages store normalized keys and compare them with bytes.Compare.
// The encoding must therefore preserve the ordering of Compare for every
// supported type, including multi-column composites, which is exactly what
// two-column indexes and the MDAM scans of the paper's Figures 8 and 9 need.
//
// Layout per column:
//   0x00                       NULL (sorts first)
//   0x01 <payload>             non-NULL value
// Payloads:
//   int64/date: 8 bytes big-endian with the sign bit flipped
//   float64:    8 bytes big-endian of Float64ToSortable
//   bool:       1 byte 0/1
//   string/bytes: escaped form terminated by 0x00 0x01
//     (0x00 in the data is written as 0x00 0xFF so the terminator is
//      unambiguous and order is preserved)

const (
	keyTagNull    = 0x00
	keyTagPresent = 0x01
)

// NormalizeValue appends the order-preserving encoding of v to dst.
func NormalizeValue(dst []byte, v Value) []byte {
	if v.IsNull() {
		return append(dst, keyTagNull)
	}
	dst = append(dst, keyTagPresent)
	switch v.typ {
	case TypeInt64, TypeDate:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v.n^(1<<63))
		return append(dst, buf[:]...)
	case TypeFloat64:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], Float64ToSortable(v.float()))
		return append(dst, buf[:]...)
	case TypeBool:
		if v.bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case TypeString, TypeBytes:
		return appendEscaped(dst, v.s)
	default:
		panic(fmt.Sprintf("record: normalize invalid type %v", v.typ))
	}
}

func appendEscaped(dst []byte, data string) []byte {
	for i := 0; i < len(data); i++ {
		b := data[i]
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x01)
}

// Normalize appends the composite encoding of the given values.
func Normalize(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = NormalizeValue(dst, v)
	}
	return dst
}

// DenormalizeValue decodes one normalized value of the given type from data,
// returning the value and the number of bytes consumed.
func DenormalizeValue(data []byte, typ Type) (Value, int, error) {
	if len(data) == 0 {
		return Null, 0, fmt.Errorf("record: empty normalized key")
	}
	switch data[0] {
	case keyTagNull:
		return Null, 1, nil
	case keyTagPresent:
	default:
		return Null, 0, fmt.Errorf("record: bad key tag 0x%02x", data[0])
	}
	body := data[1:]
	switch typ {
	case TypeInt64, TypeDate:
		if len(body) < 8 {
			return Null, 0, fmt.Errorf("record: truncated int key")
		}
		u := binary.BigEndian.Uint64(body) ^ (1 << 63)
		if typ == TypeDate {
			return Date(int64(u)), 9, nil
		}
		return Int(int64(u)), 9, nil
	case TypeFloat64:
		if len(body) < 8 {
			return Null, 0, fmt.Errorf("record: truncated float key")
		}
		return Float(Float64FromSortable(binary.BigEndian.Uint64(body))), 9, nil
	case TypeBool:
		if len(body) < 1 {
			return Null, 0, fmt.Errorf("record: truncated bool key")
		}
		return Bool(body[0] != 0), 2, nil
	case TypeString, TypeBytes:
		out := make([]byte, 0, 16)
		i := 0
		for {
			if i >= len(body) {
				return Null, 0, fmt.Errorf("record: unterminated varlen key")
			}
			b := body[i]
			if b != 0x00 {
				out = append(out, b)
				i++
				continue
			}
			if i+1 >= len(body) {
				return Null, 0, fmt.Errorf("record: truncated escape in varlen key")
			}
			switch body[i+1] {
			case 0x01: // terminator
				if typ == TypeString {
					return String_(string(out)), 1 + i + 2, nil
				}
				return Bytes(out), 1 + i + 2, nil
			case 0xFF: // escaped zero byte
				out = append(out, 0x00)
				i += 2
			default:
				return Null, 0, fmt.Errorf("record: bad escape 0x%02x", body[i+1])
			}
		}
	default:
		return Null, 0, fmt.Errorf("record: denormalize invalid type %v", typ)
	}
}

// Denormalize decodes a composite key with the given column types.
func Denormalize(data []byte, types []Type) ([]Value, error) {
	return DenormalizeAppend(make([]Value, 0, len(types)), data, types)
}

// DenormalizeAppend is Denormalize appending into a caller-supplied slice,
// so hot loops can reuse one buffer across keys instead of allocating a
// fresh slice per entry.
func DenormalizeAppend(dst []Value, data []byte, types []Type) ([]Value, error) {
	off := 0
	for _, t := range types {
		v, n, err := DenormalizeValue(data[off:], t)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		off += n
	}
	if off != len(data) {
		return nil, fmt.Errorf("record: %d trailing bytes in normalized key", len(data)-off)
	}
	return dst, nil
}

// KeySuccessor returns the smallest normalized key strictly greater than any
// key having data as a prefix: data with 0xFF... appended would not work for
// arbitrary encodings, but appending a single 0xFF byte suffices because no
// normalized encoding places 0xFF after a complete value at a column
// boundary. The result is freshly allocated.
//
// MDAM uses KeySuccessor to advance past an exhausted leading-column value.
func KeySuccessor(data []byte) []byte {
	out := make([]byte, len(data)+1)
	copy(out, data)
	out[len(data)] = 0xFF
	return out
}
