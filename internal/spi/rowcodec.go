package spi

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// MarshalRow appends a compact binary encoding of row to dst and returns the
// extended slice. The format is: uvarint column count, then per column a
// kind byte and a kind-specific payload (zigzag varint for ints, 8 raw bytes
// for floats, uvarint length + bytes for strings). Used by the WAL.
func MarshalRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.K))
		switch v.K {
		case KindInt:
			dst = binary.AppendVarint(dst, v.I)
		case KindFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			dst = append(dst, b[:]...)
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			panic("spi: MarshalRow on zero Value")
		}
	}
	return dst
}

// UnmarshalRow decodes one row from b, returning the row and the number of
// bytes consumed. String columns are copied out of b.
func UnmarshalRow(b []byte) (Row, int, error) { return unmarshalRow(b, false) }

// UnmarshalRowShared is UnmarshalRow with string columns pointing into b
// instead of copied out of it, so a row costs one allocation however many
// strings it holds. b must never be modified afterwards: backends use it to
// decode the immutable encodings they store.
func UnmarshalRowShared(b []byte) (Row, int, error) { return unmarshalRow(b, true) }

func unmarshalRow(b []byte, shared bool) (Row, int, error) {
	n, sz := binary.Uvarint(b)
	// Each column costs at least one byte, so a count beyond the remaining
	// bytes is garbage; the bound also keeps the allocation below sane.
	if sz <= 0 || n > uint64(len(b)) {
		return nil, 0, fmt.Errorf("spi: bad row header")
	}
	off := sz
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		if off >= len(b) {
			return nil, 0, fmt.Errorf("spi: truncated row")
		}
		kind := Kind(b[off])
		off++
		switch kind {
		case KindInt:
			v, sz := binary.Varint(b[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("spi: bad int column")
			}
			off += sz
			row = append(row, I64(v))
		case KindFloat:
			if off+8 > len(b) {
				return nil, 0, fmt.Errorf("spi: truncated float column")
			}
			bits := binary.LittleEndian.Uint64(b[off : off+8])
			off += 8
			row = append(row, F64(math.Float64frombits(bits)))
		case KindString:
			l, sz := binary.Uvarint(b[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("spi: bad string length")
			}
			off += sz
			if l > uint64(len(b)-off) {
				return nil, 0, fmt.Errorf("spi: truncated string column")
			}
			if shared {
				row = append(row, Str(unsafe.String(unsafe.SliceData(b[off:]), int(l))))
			} else {
				row = append(row, Str(string(b[off:off+int(l)])))
			}
			off += int(l)
		default:
			return nil, 0, fmt.Errorf("spi: bad column kind 0x%02x", byte(kind))
		}
	}
	return row, off, nil
}
