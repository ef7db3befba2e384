package main

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// maxFloatLen bounds one formatted float plus its separator: the
// longest encoding/json form is 25 bytes ("-0.0000012345678901234567").
const maxFloatLen = 26

// encodeReply returns the bytes json.NewEncoder(w).Encode(resp) writes
// for a finite reply: the same field order, omitempty rules, float
// forms, HTML-escaped strings and trailing newline
// (TestReplyEncodeMatchesEncodingJSON and FuzzReplyEncode hold it to
// that). A NaN or ±Inf, which encoding/json refuses, is written as
// null. The buffer is sized from the columns, so a reply allocates
// once, and when resp.X mirrors column 0's solution its bytes are
// copied rather than formatted twice.
func encodeReply(resp *solveResponse) []byte {
	n := 128 + len(resp.Outcome) + len(resp.Error) + maxFloatLen*len(resp.X)
	for _, c := range resp.Columns {
		n += 64 + maxFloatLen*len(c.X)
	}
	for _, e := range resp.Escalations {
		n += len(e) + 3
	}
	b := make([]byte, 0, n)

	b = append(b, `{"outcome":`...)
	b = appendString(b, resp.Outcome)
	b = append(b, `,"columns":`...)
	x0, x0end := 0, 0 // column 0's formatted x is b[x0:x0end]
	if resp.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for j := range resp.Columns {
			c := &resp.Columns[j]
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"x":`...)
			start := len(b)
			b = appendFloats(b, c.X)
			if j == 0 {
				x0, x0end = start, len(b)
			}
			b = append(b, `,"iterations":`...)
			b = strconv.AppendInt(b, int64(c.Iterations), 10)
			b = append(b, `,"relres":`...)
			b = appendFloat(b, c.RelResidual)
			b = append(b, `,"converged":`...)
			b = strconv.AppendBool(b, c.Converged)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(resp.X) > 0 {
		b = append(b, `,"x":`...)
		if x0end > x0 && sameBacking(resp.X, resp.Columns[0].X) {
			b = append(b, b[x0:x0end]...)
		} else {
			b = appendFloats(b, resp.X)
		}
	}
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, resp.Converged)
	b = append(b, `,"relres":`...)
	b = appendFloat(b, resp.RelResidual)
	if len(resp.Escalations) > 0 {
		b = append(b, `,"escalations":[`...)
		for i, e := range resp.Escalations {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, e)
		}
		b = append(b, ']')
	}
	if resp.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, resp.Error)
	}
	return append(b, "}\n"...)
}

// sameBacking reports whether x and y are the same non-empty slice.
func sameBacking(x, y []float64) bool {
	return len(x) > 0 && len(x) == len(y) && &x[0] == &y[0]
}

// appendFloats appends xs as a JSON array, or null when xs is nil.
func appendFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// appendFloat appends v as encoding/json formats a float64: the
// shortest digits that read back as v, in exponent form below 1e-6
// and from 1e21 with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). NaN and ±Inf are written as null.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string the way encoding/json's
// Encoder does with HTML escaping on: ", \ and control characters are
// escaped, as are <, > and &, U+2028 and U+2029; invalid UTF-8 becomes
// \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
