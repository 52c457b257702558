package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"accdb/internal/spi"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if spi.I64(7).Int64() != 7 {
		t.Error("I64 roundtrip failed")
	}
	if spi.Int(-3).Int64() != -3 {
		t.Error("Int roundtrip failed")
	}
	if spi.F64(2.5).Float64() != 2.5 {
		t.Error("F64 roundtrip failed")
	}
	if spi.Str("abc").Text() != "abc" {
		t.Error("Str roundtrip failed")
	}
}

func TestValueAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = spi.Str("x").Int64()
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b spi.Value
		want bool
	}{
		{spi.I64(1), spi.I64(1), true},
		{spi.I64(1), spi.I64(2), false},
		{spi.I64(1), spi.F64(1), false},
		{spi.F64(1.5), spi.F64(1.5), true},
		{spi.Str("a"), spi.Str("a"), true},
		{spi.Str("a"), spi.Str("b"), false},
		{spi.Str("1"), spi.I64(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if spi.I64(1).Compare(spi.I64(2)) != -1 || spi.I64(2).Compare(spi.I64(1)) != 1 || spi.I64(5).Compare(spi.I64(5)) != 0 {
		t.Error("int compare broken")
	}
	if spi.F64(-1).Compare(spi.F64(1)) != -1 {
		t.Error("float compare broken")
	}
	if spi.Str("a").Compare(spi.Str("b")) != -1 {
		t.Error("string compare broken")
	}
}

func TestValueCompareCrossKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	spi.I64(1).Compare(spi.Str("a"))
}

func TestEncodeKeyRoundtrip(t *testing.T) {
	vals := []spi.Value{spi.I64(-5), spi.I64(0), spi.I64(1 << 40), spi.F64(-2.5), spi.F64(3.75), spi.Str(""), spi.Str("hello"), spi.Str("nul\x00inside")}
	k := spi.EncodeKey(vals...)
	got, err := spi.DecodeKey(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !got[i].Equal(vals[i]) {
			t.Errorf("value %d: got %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	bad := []spi.Key{
		spi.Key([]byte{0xEE}),                             // unknown tag
		spi.Key([]byte{byte(spi.KindInt), 1}),             // truncated int
		spi.Key([]byte{byte(spi.KindString), 'a'}),        // unterminated string
		spi.Key([]byte{byte(spi.KindString), 0x00, 0x07}), // bad escape
		spi.Key([]byte{byte(spi.KindFloat), 0, 0, 0}),     // truncated float
	}
	for i, k := range bad {
		if _, err := spi.DecodeKey(k); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestEncodeKeyOrderPreserving is the central property: byte order of
// encoded keys equals value order.
func TestEncodeKeyOrderPreserving(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	randVal := func(kind spi.Kind) spi.Value {
		switch kind {
		case spi.KindInt:
			return spi.I64(r.Int63n(2000) - 1000)
		case spi.KindFloat:
			return spi.F64((r.Float64() - 0.5) * 100)
		default:
			n := r.Intn(6)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Intn(4)) // include NULs
			}
			return spi.Str(string(b))
		}
	}
	for trial := 0; trial < 5000; trial++ {
		kind := spi.Kind(r.Intn(3) + 1)
		a, b := randVal(kind), randVal(kind)
		ka, kb := spi.EncodeKey(a), spi.EncodeKey(b)
		cmp := a.Compare(b)
		switch {
		case cmp < 0 && !(ka < kb):
			t.Fatalf("%v < %v but keys %x >= %x", a, b, ka, kb)
		case cmp > 0 && !(ka > kb):
			t.Fatalf("%v > %v but keys %x <= %x", a, b, ka, kb)
		case cmp == 0 && ka != kb:
			t.Fatalf("%v == %v but keys differ", a, b)
		}
	}
}

func TestEncodeKeyOrderPreservingQuick(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := spi.EncodeKey(spi.I64(a)), spi.EncodeKey(spi.I64(b))
		return (a < b) == (ka < kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka, kb := spi.EncodeKey(spi.F64(a)), spi.EncodeKey(spi.F64(b))
		return (a < b) == (ka < kb)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(a, b string) bool {
		ka, kb := spi.EncodeKey(spi.Str(a)), spi.EncodeKey(spi.Str(b))
		return (a < b) == (ka < kb)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyCompositeOrdering(t *testing.T) {
	// (1, "b") < (2, "a") and (1, "a") < (1, "b").
	if !(spi.EncodeKey(spi.I64(1), spi.Str("b")) < spi.EncodeKey(spi.I64(2), spi.Str("a"))) {
		t.Error("composite ordering broken across first column")
	}
	if !(spi.EncodeKey(spi.I64(1), spi.Str("a")) < spi.EncodeKey(spi.I64(1), spi.Str("b"))) {
		t.Error("composite ordering broken within second column")
	}
	// A shorter tuple that is a prefix orders before its extensions.
	if !(spi.EncodeKey(spi.I64(1)) < spi.EncodeKey(spi.I64(1), spi.I64(0))) {
		t.Error("prefix tuple should order before extension")
	}
}

func TestMarshalRowRoundtrip(t *testing.T) {
	row := spi.Row{spi.I64(-9), spi.F64(3.5), spi.Str("hello\x00world"), spi.I64(1 << 50), spi.Str("")}
	buf := spi.MarshalRow(nil, row)
	got, n, err := spi.UnmarshalRow(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if !got.Equal(row) {
		t.Errorf("got %v, want %v", got, row)
	}
}

func TestMarshalRowQuick(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		if math.IsNaN(fl) {
			return true
		}
		row := spi.Row{spi.I64(i), spi.F64(fl), spi.Str(s)}
		got, _, err := spi.UnmarshalRow(spi.MarshalRow(nil, row))
		return err == nil && got.Equal(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRowErrors(t *testing.T) {
	row := spi.Row{spi.I64(1), spi.Str("abc")}
	buf := spi.MarshalRow(nil, row)
	for _, decode := range []func([]byte) (spi.Row, int, error){spi.UnmarshalRow, spi.UnmarshalRowShared} {
		for cut := 1; cut < len(buf); cut++ {
			if _, _, err := decode(buf[:cut]); err == nil {
				// Some prefixes decode as a shorter valid row only if the
				// header still promises the full count; that must not happen.
				t.Errorf("truncation at %d silently accepted", cut)
			}
		}
		// A string length past the end of the input, even one that
		// overflows int, is an error, not a panic.
		for _, l := range []uint64{4, 1 << 63, math.MaxUint64} {
			bad := binary.AppendUvarint([]byte{1, byte(spi.KindString)}, l)
			if _, _, err := decode(append(bad, "abc"...)); err == nil {
				t.Errorf("string length %d over 3 bytes accepted", l)
			}
		}
	}
}

// The shared decoder returns the same row; its strings point into the
// input instead of copies of it.
func TestUnmarshalRowShared(t *testing.T) {
	row := spi.Row{spi.I64(-9), spi.Str("hello"), spi.F64(2.5), spi.Str("")}
	buf := spi.MarshalRow(nil, row)
	got, n, err := spi.UnmarshalRowShared(buf)
	if err != nil || n != len(buf) || !got.Equal(row) {
		t.Fatalf("UnmarshalRowShared = %v, %d, %v; want %v, %d", got, n, err, row, len(buf))
	}
	if unsafe.StringData(got[1].S) != &buf[bytes.Index(buf, []byte("hello"))] {
		t.Error("string column was copied out of the input")
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := spi.Row{spi.I64(1), spi.Str("x")}
	c := r.Clone()
	c[0] = spi.I64(2)
	if r[0].Int64() != 1 {
		t.Error("Clone aliases the original")
	}
	if spi.Row(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
	var _ = reflect.DeepEqual // keep reflect import honest if edited
}
