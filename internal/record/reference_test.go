package record

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// The Value reference table pins everything observable about a Value —
// its row encoding, both decoders, key normalization, ordering, Clone and
// String — against testdata/value_reference.json, which was generated by
// the 72-byte, six-field Value this package had before the compact layout
// (commit 190ed2a). A layout change that alters any of them fails here
// rather than in a map baseline three layers up. Regenerate only from an
// implementation you trust:
//
//	go test ./internal/record -run TestValueReferenceTable -update
var updateReference = flag.Bool("update", false, "rewrite testdata/value_reference.json from this implementation")

// TestValueSize pins the layout: one tag, one scalar word, one
// string-shaped pair. Every row copy in the executor (sort runs, join
// builds, aggregate groups, batch fills) moves len(row) Values, so a field
// added here is paid for per column per row per copy.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", got)
	}
}

// referenceValues returns the edge values of every type plus seeded random
// ones, grouped so that values within a group are mutually comparable.
func referenceValues() map[string][]Value {
	rng := rand.New(rand.NewSource(20090104))
	randBytes := func() []byte {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(4)) * 0x55 // plenty of 0x00 and 0xFF
		}
		return b
	}
	groups := map[string][]Value{
		"int":    {Int(math.MinInt64), Int(-1), Int(0), Int(1), Int(math.MaxInt64)},
		"date":   {Date(math.MinInt64), Date(-1), Date(0), Date(14245), Date(math.MaxInt64)},
		"float":  {Float(math.Inf(-1)), Float(-math.MaxFloat64), Float(math.Copysign(0, -1)), Float(0), Float(math.SmallestNonzeroFloat64), Float(math.Inf(1)), Float(math.NaN())},
		"string": {String_(""), String_("a"), String_("\x00"), String_("ab"), String_("a\x00b")},
		"bytes":  {Bytes(nil), Bytes([]byte{}), Bytes([]byte{0}), Bytes([]byte{0xFF}), Bytes([]byte{0, 0})},
		"bool":   {Bool(false), Bool(true)},
	}
	for i := 0; i < 8; i++ {
		groups["int"] = append(groups["int"], Int(int64(rng.Uint64())))
		groups["date"] = append(groups["date"], Date(int64(rng.Int31())))
		groups["float"] = append(groups["float"], Float(math.Float64frombits(rng.Uint64())))
		groups["string"] = append(groups["string"], String_(string(randBytes())))
		groups["bytes"] = append(groups["bytes"], Bytes(randBytes()))
	}
	for name := range groups {
		groups[name] = append(groups[name], Null)
	}
	return groups
}

// referenceEntry is one value's observable behaviour, rendered as text.
type referenceEntry struct {
	Type         string `json:"type"`
	String       string `json:"string"`
	Clone        string `json:"clone"`
	Encoded      string `json:"encoded"`
	Decoded      string `json:"decoded"`
	DecodedArena string `json:"decoded_arena"`
	Normalized   string `json:"normalized"`
	Denormalized string `json:"denormalized"`
	// Compare holds Compare(v, w) for every w of the group, in order, one
	// of '-', '0', '+' each.
	Compare string `json:"compare"`
}

var groupTypes = map[string]Type{
	"int": TypeInt64, "date": TypeDate, "float": TypeFloat64,
	"string": TypeString, "bytes": TypeBytes, "bool": TypeBool,
}

func referenceTable(t *testing.T) map[string][]referenceEntry {
	table := make(map[string][]referenceEntry)
	for name, vals := range referenceValues() {
		typ := groupTypes[name]
		schema := NewSchema(Column{Name: "v", Type: typ, Nullable: true})
		for _, v := range vals {
			e := referenceEntry{Type: v.Type().String(), String: v.String(), Clone: v.Clone().String()}
			enc, err := schema.Encode(nil, []Value{v})
			if err != nil {
				t.Fatalf("%s %v: encode: %v", name, v, err)
			}
			e.Encoded = hex.EncodeToString(enc)
			row, n, err := schema.Decode(enc, nil)
			if err != nil || n != len(enc) {
				t.Fatalf("%s %v: decode consumed %d of %d: %v", name, v, n, len(enc), err)
			}
			e.Decoded = row[0].String()
			row, _, n, err = schema.DecodeArena(enc, nil, nil)
			if err != nil || n != len(enc) {
				t.Fatalf("%s %v: arena decode consumed %d of %d: %v", name, v, n, len(enc), err)
			}
			e.DecodedArena = row[0].String()
			key := NormalizeValue(nil, v)
			e.Normalized = hex.EncodeToString(key)
			back, n, err := DenormalizeValue(key, typ)
			if err != nil || n != len(key) {
				t.Fatalf("%s %v: denormalize consumed %d of %d: %v", name, v, n, len(key), err)
			}
			e.Denormalized = back.String()
			for _, w := range vals {
				e.Compare += string("-0+"[Compare(v, w)+1])
			}
			table[name] = append(table[name], e)
		}
	}
	return table
}

func TestValueReferenceTable(t *testing.T) {
	path := filepath.Join("testdata", "value_reference.json")
	got, err := json.MarshalIndent(referenceTable(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateReference {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	var wantTable map[string][]referenceEntry
	if err := json.Unmarshal(want, &wantTable); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for name, entries := range referenceTable(t) {
		for i, e := range entries {
			if i >= len(wantTable[name]) {
				t.Errorf("%s[%d]: not in the reference table", name, i)
				continue
			}
			if g, w := fmt.Sprintf("%+v", e), fmt.Sprintf("%+v", wantTable[name][i]); g != w {
				t.Errorf("%s[%d]:\n got %s\nwant %s", name, i, g, w)
			}
		}
	}
	t.Fatalf("%s differs from this implementation", path)
}

// TestValuePayloadOwnership pins who owns a variable-length payload, which
// the reference table cannot see: Bytes aliases its argument and AsBytes
// returns that memory (one word pair holds strings and bytes alike, but a
// bytes value is still a view, not a copy), while Clone copies both kinds.
func TestValuePayloadOwnership(t *testing.T) {
	buf := []byte{1, 2, 3}
	v := Bytes(buf)
	if got := v.AsBytes(); len(got) != 3 || &got[0] != &buf[0] {
		t.Error("Bytes copied its argument, or AsBytes returned other memory")
	}
	c := v.Clone()
	buf[0] = 9
	if v.AsBytes()[0] != 9 {
		t.Error("a Bytes value stopped aliasing its argument")
	}
	if c.AsBytes()[0] != 1 {
		t.Error("Clone shares a bytes payload with the original")
	}
	s := String_(string(buf))
	if c := s.Clone(); c.AsString() != s.AsString() || unsafe.StringData(c.AsString()) == unsafe.StringData(s.AsString()) {
		t.Error("Clone shares a string payload with the original, or changed it")
	}
	if got := Bytes(nil).AsBytes(); len(got) != 0 {
		t.Errorf("Bytes(nil).AsBytes() = %v", got)
	}
}
