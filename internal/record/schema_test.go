package record

import (
	"strings"
	"testing"
	"testing/quick"
)

func lineitemish() *Schema {
	return NewSchema(
		Column{Name: "orderkey", Type: TypeInt64},
		Column{Name: "price", Type: TypeFloat64},
		Column{Name: "comment", Type: TypeString, Nullable: true},
		Column{Name: "shipdate", Type: TypeDate},
		Column{Name: "returned", Type: TypeBool},
		Column{Name: "payload", Type: TypeBytes, Nullable: true},
	)
}

func TestNewSchemaPanics(t *testing.T) {
	cases := []func(){
		func() { NewSchema(Column{Name: "", Type: TypeInt64}) },
		func() { NewSchema(Column{Name: "a", Type: Type(0)}) },
		func() {
			NewSchema(Column{Name: "a", Type: TypeInt64}, Column{Name: "a", Type: TypeInt64})
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSchemaLookups(t *testing.T) {
	s := lineitemish()
	if s.NumColumns() != 6 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
	if s.Ordinal("price") != 1 {
		t.Errorf("Ordinal(price) = %d", s.Ordinal("price"))
	}
	if s.Ordinal("missing") != -1 {
		t.Errorf("Ordinal(missing) = %d", s.Ordinal("missing"))
	}
	if s.Column(3).Name != "shipdate" {
		t.Errorf("Column(3) = %v", s.Column(3))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustOrdinal on missing column did not panic")
		}
	}()
	s.MustOrdinal("missing")
}

func TestSchemaProject(t *testing.T) {
	p := lineitemish().Project("shipdate", "orderkey")
	if p.NumColumns() != 2 || p.Column(0).Name != "shipdate" || p.Column(1).Name != "orderkey" {
		t.Errorf("Project = %s", p)
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema(Column{Name: "a", Type: TypeInt64}, Column{Name: "b", Type: TypeString, Nullable: true})
	got := s.String()
	if !strings.Contains(got, "a BIGINT NOT NULL") || !strings.Contains(got, "b VARCHAR") {
		t.Errorf("String() = %q", got)
	}
	if strings.Contains(got, "b VARCHAR NOT NULL") {
		t.Errorf("nullable column rendered NOT NULL: %q", got)
	}
}

func TestValidate(t *testing.T) {
	s := lineitemish()
	good := []Value{Int(1), Float(2.5), String_("x"), Date(3), Bool(false), Null}
	if err := s.Validate(good); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	if err := s.Validate(good[:3]); err == nil {
		t.Error("Validate accepted wrong arity")
	}
	bad := append([]Value(nil), good...)
	bad[0] = String_("not an int")
	if err := s.Validate(bad); err == nil {
		t.Error("Validate accepted wrong type")
	}
	nullInNotNull := append([]Value(nil), good...)
	nullInNotNull[0] = Null
	if err := s.Validate(nullInNotNull); err == nil {
		t.Error("Validate accepted NULL in NOT NULL column")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := lineitemish()
	rows := [][]Value{
		{Int(1), Float(2.5), String_("hello"), Date(10957), Bool(true), Bytes([]byte{0, 1, 2})},
		{Int(-9e15), Float(-0.0), Null, Date(0), Bool(false), Null},
		{Int(0), Float(1e308), String_(""), Date(-1), Bool(true), Bytes(nil)},
	}
	for _, row := range rows {
		enc, err := s.Encode(nil, row)
		if err != nil {
			t.Fatalf("Encode(%v) = %v", row, err)
		}
		dec, n, err := s.Decode(enc, nil)
		if err != nil {
			t.Fatalf("Decode = %v", err)
		}
		if n != len(enc) {
			t.Errorf("Decode consumed %d of %d bytes", n, len(enc))
		}
		for i := range row {
			if row[i].IsNull() != dec[i].IsNull() {
				t.Errorf("col %d nullness mismatch", i)
				continue
			}
			if !row[i].IsNull() && Compare(row[i], dec[i]) != 0 {
				t.Errorf("col %d: got %v, want %v", i, dec[i], row[i])
			}
		}
	}
}

func TestEncodeRejectsInvalidRow(t *testing.T) {
	s := lineitemish()
	if _, err := s.Encode(nil, []Value{Int(1)}); err == nil {
		t.Error("Encode accepted short row")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	s := lineitemish()
	row := []Value{Int(1), Float(2.5), String_("hello"), Date(1), Bool(true), Bytes([]byte{9})}
	enc, err := s.Encode(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := s.Decode(enc[:cut], nil); err == nil {
			t.Errorf("Decode accepted %d-byte truncation", cut)
		}
	}
}

// TestPartialDecodeAgreesWithDecodeArena splits a row at every column
// boundary — decode the prefix, then either decode or only validate the
// tail — and checks, for the intact encoding, every truncation of it and
// every single-byte corruption, that all three report what DecodeArena
// reports: the same values, the same length, the same error. A reader that
// rejects a row on its prefix relies on ValidateCols to find exactly the
// corruption a full decode would have found.
func TestPartialDecodeAgreesWithDecodeArena(t *testing.T) {
	s := lineitemish()
	rows := [][]Value{
		{Int(1), Float(2.5), String_("hello"), Date(1), Bool(true), Bytes([]byte{9})},
		{Int(-1 << 40), Float(0), Null, Date(300000), Bool(false), Null},
		{Int(0), Float(-1), String_(""), Date(0), Bool(true), Bytes(nil)},
	}
	check := func(data []byte) {
		want, _, wantN, wantErr := s.DecodeArena(data, nil, nil)
		for k := 0; k <= s.NumColumns(); k++ {
			head, arena, off, err := s.DecodeArenaCols(data, 0, k, 0, nil, nil)
			full, n := head, off
			if err == nil {
				full, _, n, err = s.DecodeArenaCols(data, k, s.NumColumns(), off, head, arena)
			}
			if errString(err) != errString(wantErr) || (err == nil && (n != wantN || !rowsEqual(full, want))) {
				t.Fatalf("%x split at %d: decoded %v, %d, %v; DecodeArena %v, %d, %v", data, k, full, n, err, want, wantN, wantErr)
			}
			_, _, off, err = s.DecodeArenaCols(data, 0, k, 0, nil, nil)
			if err == nil {
				n, err = s.ValidateCols(data, k, off)
			}
			if errString(err) != errString(wantErr) || (err == nil && n != wantN) {
				t.Fatalf("%x validated from %d: %d, %v; DecodeArena %d, %v", data, k, n, err, wantN, wantErr)
			}
		}
	}
	for _, row := range rows {
		enc, err := s.Encode(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		check(enc)
		for cut := 0; cut < len(enc); cut++ {
			check(enc[:cut])
		}
		for i := range enc {
			for _, b := range []byte{0x00, 0x7F, 0x80, 0xFF} {
				bad := append([]byte(nil), enc...)
				bad[i] = b
				check(bad)
			}
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func rowsEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type() != b[i].Type() || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func TestEncodeConcatenatedRows(t *testing.T) {
	s := NewSchema(Column{Name: "k", Type: TypeInt64}, Column{Name: "v", Type: TypeString})
	var buf []byte
	var err error
	for i := int64(0); i < 10; i++ {
		buf, err = s.Encode(buf, []Value{Int(i), String_(strings.Repeat("x", int(i)))})
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := int64(0); i < 10; i++ {
		vals, n, err := s.Decode(buf[off:], nil)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if vals[0].AsInt() != i || int64(len(vals[1].AsString())) != i {
			t.Errorf("row %d decoded as %v", i, vals)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Type: TypeInt64},
		Column{Name: "b", Type: TypeFloat64},
		Column{Name: "c", Type: TypeString, Nullable: true},
	)
	f := func(a int64, b float64, c string, cNull bool) bool {
		if b != b { // NaN: Compare is not defined for it
			return true
		}
		cv := String_(c)
		if cNull {
			cv = Null
		}
		row := []Value{Int(a), Float(b), cv}
		enc, err := s.Encode(nil, row)
		if err != nil {
			return false
		}
		dec, n, err := s.Decode(enc, nil)
		if err != nil || n != len(enc) {
			return false
		}
		for i := range row {
			if row[i].IsNull() != dec[i].IsNull() {
				return false
			}
			if !row[i].IsNull() && Compare(row[i], dec[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeEstimatePositive(t *testing.T) {
	if est := lineitemish().EncodedSizeEstimate(); est <= 0 {
		t.Errorf("EncodedSizeEstimate = %d", est)
	}
}
