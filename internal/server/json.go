// NDJSON row rendering: one appended JSON document per result row, with no
// per-row allocation beyond the shared buffer — and, for columnar results,
// no boxing either. Records become objects,
// collections arrays; non-finite floats — which JSON cannot carry — become
// null, matching what a round-trip through encoding/json would reject.
package server

import (
	"strconv"
	"unicode/utf8"

	"proteus/internal/exec"
	"proteus/internal/types"
)

// appendValueJSON appends v's JSON encoding to dst and returns the extended
// buffer.
func appendValueJSON(dst []byte, v types.Value) []byte {
	switch v.Kind {
	case types.KindNull:
		return append(dst, "null"...)
	case types.KindBool:
		if v.I != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case types.KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case types.KindFloat:
		return appendFloatJSON(dst, v.F)
	case types.KindString:
		return appendJSONString(dst, v.S)
	case types.KindRecord:
		dst = append(dst, '{')
		if v.Rec != nil {
			for i, name := range v.Rec.Names {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, name)
				dst = append(dst, ':')
				dst = appendValueJSON(dst, v.Rec.Values[i])
			}
		}
		return append(dst, '}')
	case types.KindList, types.KindBag:
		dst = append(dst, '[')
		for i, e := range v.Elems {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendValueJSON(dst, e)
		}
		return append(dst, ']')
	default:
		return append(dst, "null"...)
	}
}

// appendFloatJSON appends f, or null for NaN and ±Inf.
func appendFloatJSON(dst []byte, f float64) []byte {
	if f != f || f > 1.797693134862315708e308 || f < -1.797693134862315708e308 {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// rowEncoder appends the NDJSON row lines of one result. Boxed rows go
// through appendValueJSON; columnar chunks are encoded straight from their
// typed columns, with each field's `"name":` key escaped once per stream
// instead of once per row, and no types.Value built at all. Both produce
// the same bytes for the same rows.
type rowEncoder struct {
	scalarKey []byte   // `{"<col>":` wrapping each scalar row
	keys      [][]byte // columnar: `"<field>":`, comma-led after the first
}

// newRowEncoder prepares the encoder for a result whose scalar rows stream
// under scalarCol and whose record rows carry fields.
func newRowEncoder(scalarCol string, fields []string) *rowEncoder {
	e := &rowEncoder{scalarKey: append(appendJSONString([]byte{'{'}, scalarCol), ':')}
	for i, name := range fields {
		var key []byte
		if i > 0 {
			key = append(key, ',')
		}
		e.keys = append(e.keys, append(appendJSONString(key, name), ':'))
	}
	return e
}

// appendChunk appends one line per row of c.
func (e *rowEncoder) appendChunk(dst []byte, c exec.Chunk) []byte {
	if cols := c.Columns(); cols != nil {
		for i := range c.Len() {
			ri := c.Row(i)
			dst = append(dst, '{')
			for k := range cols {
				dst = append(dst, e.keys[k]...)
				dst = appendColumnJSON(dst, &cols[k], ri)
			}
			dst = append(dst, '}', '\n')
		}
		return dst
	}
	for _, row := range c.Rows {
		if row.Kind == types.KindRecord {
			dst = appendValueJSON(dst, row)
		} else {
			// Scalar row: wrap so every row line is a JSON object.
			dst = appendValueJSON(append(dst, e.scalarKey...), row)
			dst = append(dst, '}')
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendColumnJSON appends row i of a typed column exactly as
// appendValueJSON appends its boxed value.
func appendColumnJSON(dst []byte, c *exec.Column, i int) []byte {
	if c.Nulls[i] {
		return append(dst, "null"...)
	}
	switch c.Kind {
	case types.KindInt:
		return strconv.AppendInt(dst, c.Ints[i], 10)
	case types.KindFloat:
		return appendFloatJSON(dst, c.Floats[i])
	case types.KindString:
		return appendJSONString(dst, c.Strs[i])
	case types.KindBool:
		if c.Bools[i] {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	}
	return append(dst, "null"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal: quotes, backslashes,
// and control characters escaped, invalid UTF-8 replaced with U+FFFD (the
// same policy encoding/json applies).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				dst = append(dst, '\\', c)
			case c == '\n':
				dst = append(dst, '\\', 'n')
			case c == '\r':
				dst = append(dst, '\\', 'r')
			case c == '\t':
				dst = append(dst, '\\', 't')
			case c < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				dst = append(dst, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, "�"...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}
