// Serialization of generated truth rows into the raw file images the
// engines parse: RFC-4180 CSV (with delimiter/CRLF variation), JSON
// (NDJSON or array form, optional \uXXXX ASCII-escaping), and the binpg
// binary format (row- or column-major). The truth rows themselves feed
// the Volcano oracle directly, so a round-trip through these writers and
// the engine's raw-data parsers is itself under differential test.
package qcheck

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"

	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

func serializeTable(t *qTable) error {
	switch t.Format {
	case "csv":
		t.Data = encodeCSV(t)
	case "json":
		t.Data = encodeJSON(t)
	case "bin":
		cols, err := binpg.FromValues(t.Schema, t.Rows)
		if err != nil {
			return err
		}
		if t.Opts.Columnar {
			t.Data, err = binpg.EncodeColumnar(cols)
		} else {
			t.Data, err = binpg.EncodeRows(cols)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", t.Format)
	}
	return nil
}

// formatFloat renders a dyadic rational exactly ("12.25", "-3.5", "7").
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

func encodeCSV(t *qTable) []byte {
	delim := byte(',')
	if t.Opts.Delimiter != 0 {
		delim = t.Opts.Delimiter
	}
	eol := "\n"
	if t.CRLF {
		eol = "\r\n"
	}
	var buf bytes.Buffer
	for _, row := range t.Rows {
		for i, f := range t.Schema.Fields {
			if i > 0 {
				buf.WriteByte(delim)
			}
			v, _ := row.Field(f.Name)
			writeCSVField(&buf, v, delim)
		}
		buf.WriteString(eol)
	}
	return buf.Bytes()
}

func writeCSVField(buf *bytes.Buffer, v types.Value, delim byte) {
	var s string
	switch v.Kind {
	case types.KindInt:
		s = strconv.FormatInt(v.I, 10)
	case types.KindFloat:
		s = formatFloat(v.F)
	case types.KindBool:
		if v.Bool() {
			s = "true"
		} else {
			s = "false"
		}
	default:
		s = v.S
	}
	if bytes.ContainsAny([]byte(s), string([]byte{delim, '"', '\n', '\r'})) {
		buf.WriteByte('"')
		for i := 0; i < len(s); i++ {
			if s[i] == '"' {
				buf.WriteByte('"')
			}
			buf.WriteByte(s[i])
		}
		buf.WriteByte('"')
		return
	}
	buf.WriteString(s)
}

func encodeJSON(t *qTable) []byte {
	// Deterministically vary string escaping: tables whose seed-dependent
	// name hash is even escape all non-ASCII as \uXXXX (surrogate pairs for
	// astral code points), exercising the parser's escape decoder.
	asciiOnly := len(t.Rows)%2 == 0
	bare := map[string]bool{}
	for _, c := range t.Cols {
		bare[c.Name] = c.Bare
	}
	var buf bytes.Buffer
	if t.Array {
		buf.WriteByte('[')
	}
	for ri, row := range t.Rows {
		if t.Array && ri > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('{')
		for i, f := range t.Schema.Fields {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeJSONString(&buf, f.Name, asciiOnly)
			buf.WriteByte(':')
			v, _ := row.Field(f.Name)
			if bare[f.Name] && v.Kind == types.KindFloat {
				buf.WriteString(formatFloat(v.F)) // "7", not "7.0"
				continue
			}
			writeJSONValue(&buf, v, asciiOnly)
		}
		buf.WriteByte('}')
		if !t.Array {
			buf.WriteByte('\n')
		}
	}
	if t.Array {
		buf.WriteByte(']')
	}
	return buf.Bytes()
}

func writeJSONValue(buf *bytes.Buffer, v types.Value, asciiOnly bool) {
	switch v.Kind {
	case types.KindNull:
		buf.WriteString("null")
	case types.KindInt:
		buf.WriteString(strconv.FormatInt(v.I, 10))
	case types.KindFloat:
		s := formatFloat(v.F)
		buf.WriteString(s)
		if !bytes.ContainsRune([]byte(s), '.') {
			buf.WriteString(".0") // keep the value a JSON float
		}
	case types.KindBool:
		if v.Bool() {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case types.KindString:
		writeJSONString(buf, v.S, asciiOnly)
	case types.KindList, types.KindBag:
		buf.WriteByte('[')
		for i, e := range v.Elems {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeJSONValue(buf, e, asciiOnly)
		}
		buf.WriteByte(']')
	case types.KindRecord:
		buf.WriteByte('{')
		for i, n := range v.Rec.Names {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeJSONString(buf, n, asciiOnly)
			buf.WriteByte(':')
			writeJSONValue(buf, v.Rec.Values[i], asciiOnly)
		}
		buf.WriteByte('}')
	default:
		panic("qcheck: unencodable JSON value kind")
	}
}

func writeJSONString(buf *bytes.Buffer, s string, asciiOnly bool) {
	buf.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			buf.WriteString(`\"`)
		case '\\':
			buf.WriteString(`\\`)
		case '\n':
			buf.WriteString(`\n`)
		case '\r':
			buf.WriteString(`\r`)
		case '\t':
			buf.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(buf, `\u%04x`, r)
			} else if asciiOnly && r > 0x7e {
				if r > 0xffff {
					hi, lo := utf16.EncodeRune(r)
					fmt.Fprintf(buf, `\u%04x\u%04x`, hi, lo)
				} else {
					fmt.Fprintf(buf, `\u%04x`, r)
				}
			} else {
				buf.WriteRune(r)
			}
		}
	}
	buf.WriteByte('"')
}
