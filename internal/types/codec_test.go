package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomValue draws a value of bounded depth covering every kind, the float
// edge cases, and strings that are not valid UTF-8.
func randomValue(r *rand.Rand, depth int) Value {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, -2.5}
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, -9007199254740993}
	strs := []string{"", "a", "héllo\nworld", "\x00\xff\xfe", "日本語"}
	kinds := 5
	if depth > 0 {
		kinds = 8
	}
	switch Kind(r.Intn(kinds)) {
	case KindNull:
		return NullValue()
	case KindBool:
		return BoolValue(r.Intn(2) == 1)
	case KindInt:
		if r.Intn(2) == 0 {
			return IntValue(ints[r.Intn(len(ints))])
		}
		return IntValue(r.Int63() - r.Int63())
	case KindFloat:
		if r.Intn(2) == 0 {
			return FloatValue(floats[r.Intn(len(floats))])
		}
		return FloatValue(math.Float64frombits(r.Uint64()))
	case KindString:
		return StringValue(strs[r.Intn(len(strs))])
	case KindRecord:
		n := r.Intn(4)
		names, vals := make([]string, n), make([]Value, n)
		for i := range vals {
			names[i], vals[i] = strs[r.Intn(len(strs))], randomValue(r, depth-1)
		}
		return RecordValue(names, vals)
	default:
		elems := make([]Value, r.Intn(4))
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		if r.Intn(2) == 0 {
			return ListValue(elems...)
		}
		return BagValue(elems...)
	}
}

// sameBits is stricter than Compare where Compare is lenient: kinds must
// match (Compare equates 1 and 1.0), floats bit for bit (Compare cannot
// order NaN and equates ±0), record field names too.
func sameBits(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case KindRecord:
		if len(a.Rec.Names) != len(b.Rec.Names) || len(a.Rec.Values) != len(b.Rec.Values) {
			return false
		}
		for i := range a.Rec.Values {
			if a.Rec.Names[i] != b.Rec.Names[i] || !sameBits(a.Rec.Values[i], b.Rec.Values[i]) {
				return false
			}
		}
		return true
	case KindList, KindBag:
		if len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !sameBits(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	}
	return a.I == b.I && a.S == b.S
}

func hasNaN(v Value) bool {
	switch v.Kind {
	case KindFloat:
		return math.IsNaN(v.F)
	case KindRecord:
		for _, f := range v.Rec.Values {
			if hasNaN(f) {
				return true
			}
		}
	case KindList, KindBag:
		for _, e := range v.Elems {
			if hasNaN(e) {
				return true
			}
		}
	}
	return false
}

// TestCodecRoundTripProperty: decoding an encoding yields a value Compare
// cannot tell from the original (and that matches it bit for bit), consumes
// exactly the encoding, and no strict prefix of an encoding decodes.
func TestCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 4000; i++ {
		v := randomValue(r, 3)
		enc := AppendValue([]byte{0xAA}, v)[1:] // appends, does not overwrite
		got, rest, err := DecodeValue(append(enc[:len(enc):len(enc)], 0x7F))
		if err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		if len(rest) != 1 || rest[0] != 0x7F {
			t.Fatalf("decode %s consumed the wrong length: %d bytes left", v, len(rest))
		}
		if !sameBits(v, got) {
			t.Fatalf("round trip changed %s into %s", v, got)
		}
		if !hasNaN(v) && Compare(v, got) != 0 {
			t.Fatalf("Compare(%s, decoded %s) = %d", v, got, Compare(v, got))
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := DecodeValue(enc[:cut]); err == nil {
				t.Fatalf("prefix %d/%d of %s decoded without error", cut, len(enc), v)
			}
		}
	}
}

func TestCodecRejectsHostileInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"empty":               {},
		"unknown kind":        {200},
		"bool out of range":   {byte(KindBool), 2},
		"short float":         {byte(KindFloat), 1, 2, 3},
		"string length lies":  append([]byte{byte(KindString)}, huge...),
		"list count lies":     append([]byte{byte(KindList)}, huge...),
		"record count lies":   append([]byte{byte(KindRecord)}, huge...),
		"varint overflow":     append([]byte{byte(KindInt)}, bytes.Repeat([]byte{0xFF}, 11)...),
		"list element absent": {byte(KindList), 1},
		"depth bomb":          bytes.Repeat([]byte{byte(KindList), 1}, MaxValueDepth+1),
	}
	for name, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A count that fits the buffer but not the items behind it is truncation.
	if _, _, err := DecodeValue([]byte{byte(KindBag), 3, byte(KindNull), byte(KindNull), byte(KindInt)}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated bag: err = %v, want ErrTruncated", err)
	}
	// The deepest legal nesting still decodes.
	ok := append(bytes.Repeat([]byte{byte(KindList), 1}, MaxValueDepth), byte(KindNull))
	if _, _, err := DecodeValue(ok); err != nil {
		t.Errorf("nesting of depth %d: %v", MaxValueDepth, err)
	}
}
