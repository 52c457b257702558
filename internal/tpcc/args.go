package tpcc

import (
	"encoding/binary"
	"fmt"

	"accdb/internal/server/wire"
	"accdb/internal/spi"
)

// Every TPC-C argument record has exactly one byte encoding: spi.MarshalRow's
// layout (uvarint column count, then kind byte + payload per column), which
// is the work area the forced end-of-step record saves (§5) and also the
// binary args the wire carries between accclient and accd. Each record type
// has one append-form encoder, appendX, which writes those bytes without
// materializing the intermediate Row, and one in-place decoder, decodeX,
// which reads them back through a bounds-checked cursor into a reused
// record. The WAL format is the stable one — recovery replays old logs and
// the partition coordinator forces shot arguments into its decision
// records — so the encoders must keep producing exactly these bytes.

// colI64 appends one KindInt column.
func colI64(dst []byte, v int64) []byte {
	dst = append(dst, byte(spi.KindInt))
	return binary.AppendVarint(dst, v)
}

// colStr appends one KindString column.
func colStr(dst []byte, s string) []byte {
	dst = append(dst, byte(spi.KindString))
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// cursor reads a work area column by column with saturating bounds checks:
// a malformed read sets bad and every later read returns zero, so decoders
// stay straight-line and check once, in done.
type cursor struct {
	b   []byte
	bad bool
}

// cols reads the column count. Every column takes at least two bytes (kind
// and payload), so a count beyond half the remaining bytes is garbage; the
// bound also caps any slice a decoder sizes from it.
func (c *cursor) cols() int {
	n, sz := binary.Uvarint(c.b)
	if sz <= 0 || n > uint64(len(c.b)-sz)/2 {
		c.bad = true
		return 0
	}
	c.b = c.b[sz:]
	return int(n)
}

// i64 reads one KindInt column.
func (c *cursor) i64() int64 {
	if c.bad || len(c.b) < 2 || c.b[0] != byte(spi.KindInt) {
		c.bad = true
		return 0
	}
	v, sz := binary.Varint(c.b[1:])
	if sz <= 0 {
		c.bad = true
		return 0
	}
	c.b = c.b[1+sz:]
	return v
}

// str reads one KindString column. It returns old when the bytes spell it,
// so decoding the same name into a reused record allocates nothing.
func (c *cursor) str(old string) string {
	if c.bad || len(c.b) < 2 || c.b[0] != byte(spi.KindString) {
		c.bad = true
		return ""
	}
	n, sz := binary.Uvarint(c.b[1:])
	if sz <= 0 || n > uint64(len(c.b)-1-sz) {
		c.bad = true
		return ""
	}
	s := c.b[1+sz : 1+sz+int(n)]
	c.b = c.b[1+sz+int(n):]
	if string(s) == old {
		return old
	}
	return string(s)
}

// groups reads a group-count column and checks the record's shape against
// it: fixed scalar columns plus that many groups of per columns each. It
// returns the count, or 0 with the cursor marked bad.
func (c *cursor) groups(cols, fixed, per int) int {
	n := c.i64()
	if c.bad || n < 0 || n > int64(cols) || fixed+per*int(n) != cols {
		c.bad = true
		return 0
	}
	return int(n)
}

// done reports whether the whole record was read cleanly.
func (c *cursor) done(rec string) error {
	if c.bad || len(c.b) != 0 {
		return fmt.Errorf("tpcc: malformed %s work area", rec)
	}
	return nil
}

// resize returns s at length n, reusing its capacity (nil stays nil at 0).
// Decoders overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fresh adapts an in-place decoder to core.TxnType.DecodeArgs, which
// recovery calls with no record to reuse.
func fresh[T any](decode func([]byte, any) error) func([]byte) (any, error) {
	return func(data []byte) (any, error) {
		v := new(T)
		if err := decode(data, v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// zero is the wire pool's Reset for records without slices.
func zero[T any](v any) { *v.(*T) = *new(T) }

// slot returns s[i], or 0 for a work-area slot a caller's record lacks, so
// encoding never fails; the decoders and the first steps enforce the shape.
func slot(s []int64, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

func boolCol(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Argument structs double as the transactions' work areas (§3.4, §5): steps
// record into them the state a compensating step needs (assigned order
// number, quantities actually taken from stock, claimed orders). The
// encoders serialize them into the forced end-of-step records so crash
// recovery can compensate.

// OrderLineReq is one requested line of a new-order.
type OrderLineReq struct {
	ItemID   int64
	SupplyW  int64
	Quantity int64
}

// NewOrderArgs parameterizes a new-order transaction.
type NewOrderArgs struct {
	WID, DID, CID int64
	Lines         []OrderLineReq
	// InvalidItem makes the last line reference a nonexistent item, forcing
	// the 1% rollback the benchmark requires (§2.4.1.4), which under the ACC
	// exercises compensation: the abort happens while ordering the final
	// item, after earlier lines committed their steps.
	InvalidItem bool
	// FailFinal rolls back in the finish step instead — after every line and
	// any remote-stock shot committed. The spec's rollback happens at the end
	// of the transaction; in a partitioned deployment this is the variant
	// that forces the coordinator's cross-partition compensation path.
	FailFinal bool

	// Work area, filled by the forward steps. Filled and Amounts hold one
	// slot per line.
	ONum      int64
	WTax      int64
	DTax      int64
	CDiscount int64
	Filled    []int64 // per line: stock quantity deducted
	Amounts   []int64 // per line: ol_amount
	Total     int64
}

func appendNewOrder(dst []byte, v any) []byte {
	a := v.(*NewOrderArgs)
	dst = binary.AppendUvarint(dst, uint64(11+5*len(a.Lines)))
	dst = colI64(dst, a.WID)
	dst = colI64(dst, a.DID)
	dst = colI64(dst, a.CID)
	dst = colI64(dst, a.ONum)
	dst = colI64(dst, a.WTax)
	dst = colI64(dst, a.DTax)
	dst = colI64(dst, a.CDiscount)
	dst = colI64(dst, a.Total)
	dst = colI64(dst, boolCol(a.InvalidItem))
	dst = colI64(dst, boolCol(a.FailFinal))
	dst = colI64(dst, int64(len(a.Lines)))
	for i, l := range a.Lines {
		dst = colI64(dst, l.ItemID)
		dst = colI64(dst, l.SupplyW)
		dst = colI64(dst, l.Quantity)
		dst = colI64(dst, slot(a.Filled, i))
		dst = colI64(dst, slot(a.Amounts, i))
	}
	return dst
}

func decodeNewOrder(data []byte, v any) error {
	a := v.(*NewOrderArgs)
	c := cursor{b: data}
	cols := c.cols()
	a.WID, a.DID, a.CID = c.i64(), c.i64(), c.i64()
	a.ONum, a.WTax, a.DTax, a.CDiscount, a.Total = c.i64(), c.i64(), c.i64(), c.i64(), c.i64()
	a.InvalidItem, a.FailFinal = c.i64() == 1, c.i64() == 1
	n := c.groups(cols, 11, 5)
	a.Lines, a.Filled, a.Amounts = resize(a.Lines, n), resize(a.Filled, n), resize(a.Amounts, n)
	for i := range a.Lines {
		a.Lines[i] = OrderLineReq{ItemID: c.i64(), SupplyW: c.i64(), Quantity: c.i64()}
		a.Filled[i], a.Amounts[i] = c.i64(), c.i64()
	}
	return c.done("new_order")
}

// wellShaped reports whether every line has its work-area slots.
func (a *NewOrderArgs) wellShaped() bool {
	return len(a.Filled) == len(a.Lines) && len(a.Amounts) == len(a.Lines)
}

// PaymentArgs parameterizes a payment transaction. The customer is selected
// by last name when CLast is non-empty (60% of the time per the benchmark),
// by id otherwise.
type PaymentArgs struct {
	WID, DID   int64
	CWID, CDID int64
	CID        int64
	CLast      string
	Amount     int64
	HID        int64
	Date       int64

	// Work area.
	ResolvedCID int64
}

func appendPayment(dst []byte, v any) []byte {
	a := v.(*PaymentArgs)
	dst = binary.AppendUvarint(dst, 10)
	dst = colI64(dst, a.WID)
	dst = colI64(dst, a.DID)
	dst = colI64(dst, a.CWID)
	dst = colI64(dst, a.CDID)
	dst = colI64(dst, a.CID)
	dst = colStr(dst, a.CLast)
	dst = colI64(dst, a.Amount)
	dst = colI64(dst, a.HID)
	dst = colI64(dst, a.Date)
	return colI64(dst, a.ResolvedCID)
}

func decodePayment(data []byte, v any) error {
	a := v.(*PaymentArgs)
	c := cursor{b: data}
	c.bad = c.cols() != 10
	a.WID, a.DID, a.CWID, a.CDID, a.CID = c.i64(), c.i64(), c.i64(), c.i64(), c.i64()
	a.CLast = c.str(a.CLast)
	a.Amount, a.HID, a.Date, a.ResolvedCID = c.i64(), c.i64(), c.i64(), c.i64()
	return c.done("payment")
}

// DeliveryArgs parameterizes a delivery transaction over all districts of a
// warehouse.
type DeliveryArgs struct {
	WID     int64
	Carrier int64
	Date    int64

	// Work area, one slot per district (index d-1) in each of the three.
	Claimed   []int64 // claimed o_id, 0 = district had no pending order
	Amounts   []int64 // order total credited to the customer
	Customers []int64 // customer of the claimed order
}

// hasSlots reports whether each of the warehouse's districts has its three
// work-area slots.
func (a *DeliveryArgs) hasSlots(districts int) bool {
	n := len(a.Claimed)
	return n >= districts && len(a.Amounts) == n && len(a.Customers) == n
}

func appendDelivery(dst []byte, v any) []byte {
	a := v.(*DeliveryArgs)
	dst = binary.AppendUvarint(dst, uint64(4+3*len(a.Claimed)))
	dst = colI64(dst, a.WID)
	dst = colI64(dst, a.Carrier)
	dst = colI64(dst, a.Date)
	dst = colI64(dst, int64(len(a.Claimed)))
	for i, o := range a.Claimed {
		dst = colI64(dst, o)
		dst = colI64(dst, slot(a.Amounts, i))
		dst = colI64(dst, slot(a.Customers, i))
	}
	return dst
}

func decodeDelivery(data []byte, v any) error {
	a := v.(*DeliveryArgs)
	c := cursor{b: data}
	cols := c.cols()
	a.WID, a.Carrier, a.Date = c.i64(), c.i64(), c.i64()
	n := c.groups(cols, 4, 3)
	a.Claimed, a.Amounts, a.Customers = resize(a.Claimed, n), resize(a.Amounts, n), resize(a.Customers, n)
	for i := range a.Claimed {
		a.Claimed[i], a.Amounts[i], a.Customers[i] = c.i64(), c.i64(), c.i64()
	}
	return c.done("delivery")
}

// OrderStatusArgs parameterizes an order-status transaction.
type OrderStatusArgs struct {
	WID, DID int64
	CID      int64
	CLast    string
}

func appendOrderStatus(dst []byte, v any) []byte {
	a := v.(*OrderStatusArgs)
	dst = binary.AppendUvarint(dst, 4)
	dst = colI64(dst, a.WID)
	dst = colI64(dst, a.DID)
	dst = colI64(dst, a.CID)
	return colStr(dst, a.CLast)
}

func decodeOrderStatus(data []byte, v any) error {
	a := v.(*OrderStatusArgs)
	c := cursor{b: data}
	c.bad = c.cols() != 4
	a.WID, a.DID, a.CID = c.i64(), c.i64(), c.i64()
	a.CLast = c.str(a.CLast)
	return c.done("order_status")
}

// StockLevelArgs parameterizes a stock-level transaction; Orders is the
// number of most-recent orders to examine (the spec's 20, scaled).
type StockLevelArgs struct {
	WID, DID  int64
	Threshold int64
	Orders    int64
}

func appendStockLevel(dst []byte, v any) []byte {
	a := v.(*StockLevelArgs)
	dst = binary.AppendUvarint(dst, 4)
	dst = colI64(dst, a.WID)
	dst = colI64(dst, a.DID)
	dst = colI64(dst, a.Threshold)
	return colI64(dst, a.Orders)
}

func decodeStockLevel(data []byte, v any) error {
	a := v.(*StockLevelArgs)
	c := cursor{b: data}
	c.bad = c.cols() != 4
	a.WID, a.DID, a.Threshold, a.Orders = c.i64(), c.i64(), c.i64(), c.i64()
	return c.done("stock_level")
}

// The wire carries the same bytes: both ends of an accd connection pick the
// codecs up from internal/server/wire's registry.
func init() {
	for _, c := range []*wire.ArgCodec{
		{
			Name: "new_order", New: func() any { return &NewOrderArgs{} },
			Reset: func(v any) {
				a := v.(*NewOrderArgs)
				*a = NewOrderArgs{Lines: a.Lines[:0], Filled: a.Filled[:0], Amounts: a.Amounts[:0]}
			},
			Encode: appendNewOrder, Decode: decodeNewOrder,
		},
		{
			Name: "payment", New: func() any { return &PaymentArgs{} },
			Reset: zero[PaymentArgs], Encode: appendPayment, Decode: decodePayment,
		},
		{
			Name: "delivery", New: func() any { return &DeliveryArgs{} },
			Reset: func(v any) {
				a := v.(*DeliveryArgs)
				*a = DeliveryArgs{Claimed: a.Claimed[:0], Amounts: a.Amounts[:0], Customers: a.Customers[:0]}
			},
			Encode: appendDelivery, Decode: decodeDelivery,
		},
		{
			Name: "order_status", New: func() any { return &OrderStatusArgs{} },
			Reset: zero[OrderStatusArgs], Encode: appendOrderStatus, Decode: decodeOrderStatus,
		},
		{
			Name: "stock_level", New: func() any { return &StockLevelArgs{} },
			Reset: zero[StockLevelArgs], Encode: appendStockLevel, Decode: decodeStockLevel,
		},
	} {
		wire.RegisterArgCodec(c)
	}
}
