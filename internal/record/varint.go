package record

import "encoding/binary"

// uvarint is binary.Uvarint with inlined fast paths for the one-, two- and
// three-byte encodings that dominate row data (small lengths, and ints below
// 2^20 — every key and id of a table of up to a million rows).
func uvarint(data []byte) (uint64, int) {
	if len(data) > 0 && data[0] < 0x80 {
		return uint64(data[0]), 1
	}
	if len(data) > 1 && data[1] < 0x80 {
		return uint64(data[0]&0x7f) | uint64(data[1])<<7, 2
	}
	if len(data) > 2 && data[2] < 0x80 {
		return uint64(data[0]&0x7f) | uint64(data[1]&0x7f)<<7 | uint64(data[2])<<14, 3
	}
	return binary.Uvarint(data)
}

// varint is binary.Varint with the same fast paths.
func varint(data []byte) (int64, int) {
	u, n := uvarint(data)
	if n <= 0 {
		return 0, n
	}
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, n
}
