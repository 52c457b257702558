package tpcc

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"accdb/internal/core"
	"accdb/internal/server/wire"
	"accdb/internal/spi"
)

// randArgs builds one randomized, well-shaped instance per wire type,
// including degenerate values (no lines, empty strings, negative and extreme
// integers) the encoding must carry exactly. Well-shaped means one Filled
// and one Amounts slot per new_order line and three equal-length district
// slices per delivery: the only shapes the decoders accept.
func randArgs(rng *rand.Rand) map[string]any {
	i64 := func() int64 { return rng.Int63() - rng.Int63() }
	str := func() string {
		// Printable ASCII only: JSON replaces invalid UTF-8 with U+FFFD,
		// and the comparison is against the JSON path.
		n := rng.Intn(17)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		return string(b)
	}
	vec := func(n int) []int64 {
		if n == 0 && rng.Intn(2) == 0 {
			return nil
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = i64()
		}
		return v
	}
	lines := rng.Intn(5)
	no := &NewOrderArgs{
		WID: i64(), DID: i64(), CID: i64(),
		InvalidItem: rng.Intn(2) == 1, FailFinal: rng.Intn(2) == 1,
		ONum: i64(), WTax: i64(), DTax: i64(), CDiscount: i64(),
		Filled: vec(lines), Amounts: vec(lines), Total: i64(),
	}
	for i := 0; i < lines; i++ {
		no.Lines = append(no.Lines, OrderLineReq{ItemID: i64(), SupplyW: i64(), Quantity: i64()})
	}
	districts := rng.Intn(6)
	return map[string]any{
		"new_order": no,
		"payment": &PaymentArgs{
			WID: i64(), DID: i64(), CWID: i64(), CDID: i64(), CID: i64(),
			CLast: str(), Amount: i64(), HID: i64(), Date: i64(), ResolvedCID: i64(),
		},
		"delivery": &DeliveryArgs{
			WID: i64(), Carrier: i64(), Date: i64(),
			Claimed: vec(districts), Amounts: vec(districts), Customers: vec(districts),
		},
		"order_status": &OrderStatusArgs{WID: i64(), DID: i64(), CID: i64(), CLast: str()},
		"stock_level":  &StockLevelArgs{WID: i64(), DID: i64(), Threshold: i64(), Orders: i64()},
	}
}

// canonical renders an args record with nil and empty slices identified, so
// the binary path (which does not distinguish them) can be compared against
// the JSON path (which does).
func canonical(t *testing.T, v any) string {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	cp := reflect.New(rv.Type())
	cp.Elem().Set(rv)
	for i := 0; i < cp.Elem().NumField(); i++ {
		f := cp.Elem().Field(i)
		if f.Kind() == reflect.Slice && f.IsNil() {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
	b, err := json.Marshal(cp.Interface())
	if err != nil {
		t.Fatalf("canonical marshal: %v", err)
	}
	return string(b)
}

// TestBinaryCodecRoundTrip checks, for every registered TPC-C type, that
// the binary wire encoding carries exactly what the JSON path carries:
// decode(encode(x)) == x and == jsonRoundTrip(x) for randomized records.
func TestBinaryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		for name, orig := range randArgs(rng) {
			c := wire.CodecFor(name)
			if c == nil {
				t.Fatalf("no codec registered for %q", name)
			}
			if !c.Handles(orig) {
				t.Fatalf("%s codec does not handle its own type %T", name, orig)
			}
			enc := c.Encode(nil, orig)
			dec := c.GetArgs()
			if err := c.Decode(enc, dec); err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			want := canonical(t, orig)
			if got := canonical(t, dec); got != want {
				t.Fatalf("%s: binary round trip diverged\n got %s\nwant %s", name, got, want)
			}
			jb, err := json.Marshal(orig)
			if err != nil {
				t.Fatal(err)
			}
			jdec := c.GetArgs()
			if err := json.Unmarshal(jb, jdec); err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, jdec); got != want {
				t.Fatalf("%s: JSON round trip diverged\n got %s\nwant %s", name, got, want)
			}
			c.PutArgs(dec)
			c.PutArgs(jdec)
		}
	}
}

// row encodes the given columns in the work-area layout; ints become
// KindInt columns and strings KindString columns.
func row(cols ...any) []byte {
	r := make(spi.Row, len(cols))
	for i, c := range cols {
		switch v := c.(type) {
		case int:
			r[i] = spi.I64(int64(v))
		case string:
			r[i] = spi.Str(v)
		}
	}
	return spi.MarshalRow(nil, r)
}

// TestBinaryCodecRejectsMisshaped feeds the decoders records whose column
// count disagrees with their line or district count — a new_order line
// without its Filled/Amounts slots, a delivery district missing a slot —
// plus wrong column kinds, negative counts and trailing bytes. The step
// bodies index the slots, so a mis-shaped record that reached them would
// crash the engine on an index out of range; every one must be refused.
func TestBinaryCodecRejectsMisshaped(t *testing.T) {
	noHead := []any{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}
	cases := []struct {
		name string
		dec  func([]byte, any) error
		v    any
		data []byte
	}{
		{"new_order lines without slots", decodeNewOrder, &NewOrderArgs{},
			row(append(noHead, 2, 1, 1, 5, 2, 1, 3)...)},
		{"new_order count above lines", decodeNewOrder, &NewOrderArgs{},
			row(append(noHead, 3, 1, 1, 5, 0, 0, 2, 1, 3, 0, 0)...)},
		{"new_order negative count", decodeNewOrder, &NewOrderArgs{},
			row(append(noHead, -1)...)},
		{"new_order short header", decodeNewOrder, &NewOrderArgs{}, row(1, 1, 1)},
		{"delivery district missing slot", decodeDelivery, &DeliveryArgs{},
			row(1, 1, 1, 2, 7, 100, 3, 8, 200)},
		{"delivery count above districts", decodeDelivery, &DeliveryArgs{},
			row(1, 1, 1, 2, 7, 100, 3)},
		{"no_stock line without slot", decodeNoStock, &NoStockArgs{},
			row(1, 2, 5, 2, 9, 6, 2, 9)},
		{"payment short", decodePayment, &PaymentArgs{}, row(1, 1, 1, 1, 1, "X", 1, 1, 1)},
		{"payment int for name", decodePayment, &PaymentArgs{}, row(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)},
		{"order_status name for int", decodeOrderStatus, &OrderStatusArgs{}, row(1, 1, "X", "Y")},
		{"stock_level trailing byte", decodeStockLevel, &StockLevelArgs{}, append(row(1, 1, 10, 20), 0)},
		{"stock_level empty", decodeStockLevel, &StockLevelArgs{}, nil},
	}
	for _, tc := range cases {
		if err := tc.dec(tc.data, tc.v); err == nil {
			t.Errorf("%s: decoded without error into %+v", tc.name, tc.v)
		}
	}

	// A caller's mis-shaped record still encodes: missing slots go out as
	// zeros, so the bytes decode to a well-shaped record.
	var no NewOrderArgs
	if err := decodeNewOrder(appendNewOrder(nil, &NewOrderArgs{Lines: make([]OrderLineReq, 2)}), &no); err != nil || !shaped(&no) {
		t.Errorf("new_order without slots: %v, %+v", err, no)
	}
	var dlv DeliveryArgs
	if err := decodeDelivery(appendDelivery(nil, &DeliveryArgs{Claimed: make([]int64, 3)}), &dlv); err != nil || !shaped(&dlv) {
		t.Errorf("delivery without slots: %v, %+v", err, dlv)
	}
}

// TestBinaryCodecInPlaceReuse decodes records of shrinking and growing
// sizes into the same pooled instance, with and without Reset in between
// (a benchmark terminal restores its drawn inputs into the used record
// without one): leftover state from a previous decode must never leak
// through.
func TestBinaryCodecInPlaceReuse(t *testing.T) {
	c := wire.CodecFor("new_order")
	big := &NewOrderArgs{
		WID: 1, Lines: []OrderLineReq{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Filled: []int64{10, 20, 30}, Amounts: []int64{1, 2, 3}, Total: 99,
		InvalidItem: true, FailFinal: true,
	}
	small := &NewOrderArgs{WID: 2, Lines: []OrderLineReq{{9, 9, 9}}, Filled: []int64{5}, Amounts: []int64{6}}
	dst := c.GetArgs()
	for i := 0; i < 8; i++ {
		src := big
		if i%2 == 1 {
			src = small
		}
		if i < 4 {
			c.Reset(dst)
		}
		if err := c.Decode(c.Encode(nil, src), dst); err != nil {
			t.Fatal(err)
		}
		if got, want := canonical(t, dst), canonical(t, src); got != want {
			t.Fatalf("reuse iteration %d:\n got %s\nwant %s", i, got, want)
		}
	}
	c.PutArgs(dst)
}

// TestBinaryCodecEncodeAllocFree asserts that, for every wire type,
// encoding into a pooled buffer and decoding back into a pooled record
// allocate nothing once warm — the property the server and client hot paths
// rely on. The decoder overwrites every field, so the round trip needs no
// Reset; a last name is kept when the bytes spell the one the record
// already holds, and a different name costs exactly its one string.
func TestBinaryCodecEncodeAllocFree(t *testing.T) {
	srcs := map[string]any{
		"new_order": &NewOrderArgs{
			WID: 3, DID: 4, CID: 5,
			Lines:  []OrderLineReq{{1, 1, 5}, {2, 1, 3}},
			Filled: []int64{5, 3}, Amounts: []int64{50, 30}, Total: 80,
		},
		"payment": &PaymentArgs{
			WID: 1, DID: 2, CWID: 1, CDID: 2, CID: 7, CLast: "OUGHTPRIPRES",
			Amount: 1234, HID: 99, Date: 5, ResolvedCID: 7,
		},
		"delivery": &DeliveryArgs{
			WID: 1, Carrier: 3, Date: 9,
			Claimed: []int64{3001, 0, 2999}, Amounts: []int64{10, 0, 30}, Customers: []int64{4, 0, 6},
		},
		"order_status": &OrderStatusArgs{WID: 1, DID: 2, CID: 3, CLast: "BARBARABLE"},
		"stock_level":  &StockLevelArgs{WID: 1, DID: 2, Threshold: 15, Orders: 20},
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	for name, src := range srcs {
		c := wire.CodecFor(name)
		dst := c.GetArgs()
		run := func() {
			*buf = c.Encode((*buf)[:0], src)
			if err := c.Decode(*buf, dst); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%s: binary codec allocates %.1f objects per round trip, want 0", name, allocs)
		}
		if got, want := canonical(t, dst), canonical(t, src); got != want {
			t.Errorf("%s: round trip diverged\n got %s\nwant %s", name, got, want)
		}
		c.PutArgs(dst)
	}
	p := wire.CodecFor("payment")
	dst := p.GetArgs()
	*buf = p.Encode((*buf)[:0], srcs["payment"])
	if allocs := testing.AllocsPerRun(200, func() {
		p.Reset(dst)
		if err := p.Decode(*buf, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("payment: a new last name costs %.1f allocations, want 1", allocs)
	}
	p.PutArgs(dst)
}

// shaped reports whether a decoded record satisfies its shape invariant.
func shaped(v any) bool {
	switch a := v.(type) {
	case *NewOrderArgs:
		return a.wellShaped()
	case *DeliveryArgs:
		return len(a.Amounts) == len(a.Claimed) && len(a.Customers) == len(a.Claimed)
	case *NoStockArgs:
		return len(a.Filled) == len(a.Lines)
	}
	return true
}

// FuzzBinaryArgsDecode feeds hostile payloads to every record type's
// decoder (the five wire codecs and no_stock): decode must reject or accept
// without panicking, every accepted record must satisfy its shape
// invariant, and it must re-encode and re-decode to an equal record.
func FuzzBinaryArgsDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for name, v := range randArgs(rng) {
		c := wire.CodecFor(name)
		f.Add(name, c.Encode(nil, v))
	}
	f.Add("payment", []byte{})
	f.Add("delivery", []byte{0xFF, 0xFF})
	f.Add("no_stock", appendNoStock(nil, &NoStockArgs{WID: 1, Lines: []OrderLineReq{{1, 2, 3}}, Filled: []int64{3}}))
	f.Add("new_order", row(1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 5, 2, 1, 3))
	noStock := &wire.ArgCodec{
		New:    func() any { return &NoStockArgs{} },
		Encode: appendNoStock, Decode: decodeNoStock,
	}
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		c := noStock
		if name != "no_stock" {
			if c = wire.CodecFor(name); c == nil {
				return
			}
		}
		v := c.New()
		if err := c.Decode(data, v); err != nil {
			return
		}
		if !shaped(v) {
			t.Fatalf("%s: accepted a mis-shaped record %+v", name, v)
		}
		w := c.New()
		if err := c.Decode(c.Encode(nil, v), w); err != nil {
			t.Fatalf("%s: re-decode of accepted record failed: %v", name, err)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("%s: re-encoded record diverged\n got %+v\nwant %+v", name, w, v)
		}
	})
}

// TestWorkAreaGolden pins the WAL work-area bytes of the four record types
// forced into end-of-step and coordinator decision records. Recovery
// replays logs written by earlier builds, so these bytes must never change.
func TestWorkAreaGolden(t *testing.T) {
	cases := []struct {
		name string
		enc  func([]byte, any) []byte
		v    any
		hex  string
	}{
		{"new_order", appendNewOrder, &NewOrderArgs{
			WID: 3, DID: 7, CID: 42,
			Lines:       []OrderLineReq{{101, 3, 5}, {2002, 4, 10}, {77777, 3, 1}},
			InvalidItem: true,
			ONum:        3001, WTax: 1234, DTax: -56, CDiscount: 500,
			Filled: []int64{5, 10, -90}, Amounts: []int64{1500, 98765, 0}, Total: 123456789,
		}, "1a0106010e015401f22e01a413016f01e80701aab4de7501020100010601ca010106010a010a01b81701a41f010801140114019a870c01a2bf090106010201b3010100"},
		{"new_order empty", appendNewOrder, &NewOrderArgs{WID: 1, DID: 1, CID: 1, FailFinal: true},
			"0b01020102010201000100010001000100010001020100"},
		{"payment", appendPayment, &PaymentArgs{
			WID: 1, DID: 2, CWID: 3, CDID: 4, CID: 5, CLast: "BARBARABLE",
			Amount: 123456, HID: math.MaxInt64, Date: math.MinInt64, ResolvedCID: 77,
		}, "0a0102010401060108010a030a42415242415241424c450180890f01feffffffffffffffff0101ffffffffffffffffff01019a01"},
		{"delivery", appendDelivery, &DeliveryArgs{
			WID: 2, Carrier: 7, Date: 1700000001,
			Claimed: []int64{3001, 0, 2999}, Amounts: []int64{45000, 0, -1}, Customers: []int64{12, 0, 3000},
		}, "0d0104010e0182c49fd50c010601f22e0190bf05011801000100010001ee2e010101f02e"},
		{"no_stock", appendNoStock, &NoStockArgs{
			WID: 4, Lines: []OrderLineReq{{55, 2, 9}, {66, 6, 3}}, Filled: []int64{9, -88},
		}, "0a01080104016e010401120112018401010c010601af01"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.enc(nil, tc.v)); got != tc.hex {
			t.Errorf("%s work area changed\n got %s\nwant %s", tc.name, got, tc.hex)
		}
	}
}

// TestOneCodecPerRecord checks that the wire registry and the transaction
// types share one encoder per record, that the types' DecodeArgs decode
// what the wire decoders decode, and that order_status and stock_level —
// read-only, with nothing to compensate — save no work area.
func TestOneCodecPerRecord(t *testing.T) {
	db := core.NewDB()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	types := BuildTypes()
	eng := core.New(db, types.Tables)
	if _, err := RegisterPartitioned(eng, types, smallScale(), 2); err != nil {
		t.Fatal(err)
	}
	fn := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	rng := rand.New(rand.NewSource(3))
	for name, v := range randArgs(rng) {
		c, tt := wire.CodecFor(name), eng.Type(name)
		if name == "order_status" || name == "stock_level" {
			if tt.AppendArgs != nil || tt.DecodeArgs != nil {
				t.Errorf("%s: read-only type saves a work area", name)
			}
			continue
		}
		if fn(c.Encode) != fn(tt.AppendArgs) {
			t.Errorf("%s: wire and WAL encoders differ", name)
		}
		enc := c.Encode(nil, v)
		got, err := tt.DecodeArgs(enc)
		if err != nil {
			t.Fatalf("%s: DecodeArgs: %v", name, err)
		}
		if canonical(t, got) != canonical(t, v) {
			t.Errorf("%s: DecodeArgs diverged from the record", name)
		}
	}
	for _, name := range []string{"no_stock", "no_stock_undo"} {
		if fn(eng.Type(name).AppendArgs) != fn(appendNoStock) {
			t.Errorf("%s: not encoded by appendNoStock", name)
		}
	}
}

// TestMisshapedWorkAreaAborts runs mis-shaped records in process, the route
// that bypasses the binary decoder: the first step must abort before
// anything is written, and the database must stay consistent.
func TestMisshapedWorkAreaAborts(t *testing.T) {
	eng, w := testSystem(t, core.ModeACC, smallScale())
	bad := []struct {
		name string
		args any
	}{
		{"new_order", &NewOrderArgs{WID: 1, DID: 1, CID: 1, Lines: []OrderLineReq{{1, 1, 5}, {2, 1, 3}}}},
		{"new_order", &NewOrderArgs{WID: 1, DID: 1, CID: 1, Lines: []OrderLineReq{{1, 1, 5}},
			Filled: []int64{0}, Amounts: []int64{0, 0}}},
		{"delivery", &DeliveryArgs{WID: 1, Carrier: 1, Date: 1,
			Claimed: make([]int64, 4), Amounts: make([]int64, 4)}},
		{"delivery", &DeliveryArgs{WID: 1, Carrier: 1, Date: 1,
			Claimed: make([]int64, 2), Amounts: make([]int64, 2), Customers: make([]int64, 2)}},
	}
	for _, b := range bad {
		err := eng.Run(b.name, b.args)
		if !errors.Is(err, core.ErrUserAbort) || core.IsCompensated(err) {
			t.Errorf("%s %+v: got %v, want a plain user abort", b.name, b.args, err)
		}
	}
	r := rand.New(rand.NewSource(1))
	no := w.NewOrderArgs(r)
	no.InvalidItem, no.FailFinal = false, false // a rollback would leave an untracked hole
	if err := eng.Run("new_order", no); err != nil {
		t.Fatalf("well-formed new_order after refusals: %v", err)
	}
	if err := eng.Run("delivery", w.DeliveryArgs(r)); err != nil {
		t.Fatalf("well-formed delivery after refusals: %v", err)
	}
	checkAll(t, eng, w)
}
