// Binary value codec: the compact encoding peers exchange values in (the
// fragment wire of internal/exec). Append-style on the way out, slice-
// consuming on the way in, and strict about input: every length is checked
// against the bytes that remain before anything is allocated, so a hostile
// buffer costs at most a constant factor of its own size.
//
// One value is a kind byte followed by its payload:
//
//	null    —
//	bool    1 byte (0/1)
//	int     zig-zag varint
//	float   8 bytes, little-endian IEEE-754 bits (NaN payloads, ±Inf and
//	        -0.0 round-trip exactly; nothing is formatted or parsed)
//	string  uvarint length, bytes
//	record  uvarint field count, then per field: name string, value
//	list    uvarint element count, elements
//	bag     as list
package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxValueDepth bounds how deeply an encoded value may nest. Decoding
// recurses per level, so without a bound a few megabytes of nested list
// headers would overflow the stack — which Go cannot recover from.
const MaxValueDepth = 128

// ErrTruncated reports that a buffer ended inside a value.
var ErrTruncated = errors.New("types: encoded value is truncated")

// AppendValue appends v's encoding to dst. A kind this codec does not know
// is written as its bare kind byte, which DecodeValue rejects.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindBool:
		dst = append(dst, byte(v.I&1))
	case KindInt:
		dst = binary.AppendVarint(dst, v.I)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case KindString:
		dst = AppendString(dst, v.S)
	case KindRecord:
		if v.Rec == nil {
			return append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.Rec.Values)))
		for i, f := range v.Rec.Values {
			dst = AppendString(dst, v.Rec.Names[i])
			dst = AppendValue(dst, f)
		}
	case KindList, KindBag:
		dst = binary.AppendUvarint(dst, uint64(len(v.Elems)))
		for _, e := range v.Elems {
			dst = AppendValue(dst, e)
		}
	}
	return dst
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeValue decodes one value from the front of b and returns it with
// the bytes that follow.
func DecodeValue(b []byte) (Value, []byte, error) { return decodeValue(b, 0) }

func decodeValue(b []byte, depth int) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, ErrTruncated
	}
	kind, b := Kind(b[0]), b[1:]
	switch kind {
	case KindNull:
		return Value{}, b, nil
	case KindBool:
		if len(b) == 0 {
			return Value{}, nil, ErrTruncated
		}
		if b[0] > 1 {
			return Value{}, nil, fmt.Errorf("types: encoded bool is %d", b[0])
		}
		return Value{Kind: KindBool, I: int64(b[0])}, b[1:], nil
	case KindInt:
		i, n := binary.Varint(b)
		if n <= 0 {
			return Value{}, nil, badVarint(n)
		}
		return IntValue(i), b[n:], nil
	case KindFloat:
		if len(b) < 8 {
			return Value{}, nil, ErrTruncated
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case KindString:
		s, rest, err := DecodeString(b)
		return StringValue(s), rest, err
	case KindRecord, KindList, KindBag:
		if depth >= MaxValueDepth {
			return Value{}, nil, fmt.Errorf("types: encoded value nests deeper than %d", MaxValueDepth)
		}
		minBytes := 1 // an element is at least its kind byte
		if kind == KindRecord {
			minBytes = 2 // plus its name's length byte
		}
		n, b, err := DecodeCount(b, minBytes)
		if err != nil {
			return Value{}, nil, err
		}
		var names []string
		if kind == KindRecord {
			names = make([]string, n)
		}
		var elems []Value
		if n > 0 || kind == KindRecord {
			elems = make([]Value, n)
		}
		for i := range elems {
			if kind == KindRecord {
				if names[i], b, err = DecodeString(b); err != nil {
					return Value{}, nil, err
				}
			}
			if elems[i], b, err = decodeValue(b, depth+1); err != nil {
				return Value{}, nil, err
			}
		}
		if kind == KindRecord {
			return RecordValue(names, elems), b, nil
		}
		return Value{Kind: kind, Elems: elems}, b, nil
	}
	return Value{}, nil, fmt.Errorf("types: unknown encoded value kind %d", uint8(kind))
}

// DecodeString decodes a length-prefixed string; the result does not alias b.
func DecodeString(b []byte) (string, []byte, error) {
	n, b, err := DecodeCount(b, 1)
	if err != nil {
		return "", nil, err
	}
	return string(b[:n]), b[n:], nil
}

// DecodeCount decodes a uvarint count of items that each occupy at least
// minBytes (≥ 1) of what follows, and fails unless the remaining bytes could
// hold that many — the check that must precede any count-sized allocation.
func DecodeCount(b []byte, minBytes int) (int, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, badVarint(w)
	}
	b = b[w:]
	if n > uint64(len(b)/minBytes) {
		return 0, nil, fmt.Errorf("types: encoded count %d exceeds the %d bytes that follow: %w", n, len(b), ErrTruncated)
	}
	return int(n), b, nil
}

func badVarint(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return errors.New("types: encoded varint overflows 64 bits")
}
