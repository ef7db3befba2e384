package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxBodyPresize caps how much of a declared Content-Length readBody
// allocates up front: a client may declare a large body and send a
// small one, so past this size the buffer grows only as bytes arrive.
const maxBodyPresize = 32 << 20

// readBody reads the whole request body, capped at maxBody bytes (a
// longer body fails with *http.MaxBytesError). When the client declares
// the length, the buffer is sized from it, so the read allocates once.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBody {
		buf.Grow(int(min(n, maxBodyPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	return buf.Bytes(), err
}

// maxNestingDepth is encoding/json's limit on nested arrays and
// objects, counting the top-level object.
const maxNestingDepth = 10000

// solveFields names the solveRequest fields in the order of the field
// constants below.
var solveFields = [...]string{"rows", "cols", "rowptr", "col", "val", "b", "bs"}

const (
	fieldRows = iota
	fieldCols
	fieldRowPtr
	fieldCol
	fieldVal
	fieldB
	fieldBs
	fieldUnknown
)

// decodeSolveRequest decodes a POST /solve body into req in one pass:
// each number's digits are read as its grammar is checked, strconv
// parses only the numbers the fast paths leave (see number), and each
// slice is allocated once, sized from "rows" and the last "rowptr"
// entry when those come first. It accepts and rejects exactly what
// json.NewDecoder(bytes.NewReader(body)).Decode(req) does, and decodes
// the same values bit for bit (FuzzSolveRequestDecode holds it to
// that); the package doc lists the rules.
func decodeSolveRequest(body []byte, req *solveRequest) error {
	d := decoder{buf: body}
	switch d.skipSpace() {
	case '{':
		return d.object(req)
	case 'n':
		return d.literal("null") // leaves req as it was
	}
	return d.want("a JSON object")
}

// decoder is a cursor over one request body.
type decoder struct {
	buf   []byte
	off   int
	field string // key of the value being decoded, for error messages
}

// skipSpace advances past JSON whitespace and returns the next byte, 0
// at the end of the body.
func (d *decoder) skipSpace() byte {
	for ; d.off < len(d.buf); d.off++ {
		switch c := d.buf[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// syntaxError reports malformed JSON at the cursor.
func (d *decoder) syntaxError(context string) error {
	if d.off >= len(d.buf) {
		return fmt.Errorf("unexpected end of body %s", context)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[d.off], context, d.off)
}

// want reports a value of the wrong kind for the field, or a syntax
// error when no JSON value starts at the cursor.
func (d *decoder) want(kind string) error {
	switch c := d.peek(); {
	case strings.IndexByte(`{["tfn-`, c) < 0 && !isDigit(c):
		return d.syntaxError("looking for beginning of value")
	case d.field == "":
		return fmt.Errorf("want %s at offset %d", kind, d.off)
	}
	return fmt.Errorf("field %q: want %s at offset %d", d.field, kind, d.off)
}

// literal consumes the keyword lit (null, true or false).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i, d.off = i+1, d.off+1 {
		if d.off >= len(d.buf) || d.buf[d.off] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
	}
	return nil
}

// object decodes the top-level object. Keys match fields as
// encoding/json matches them (strings.EqualFold on the unescaped key),
// a repeated key decodes over the earlier value, and unknown keys'
// values are checked and skipped.
func (d *decoder) object(req *solveRequest) error {
	d.off++ // '{'
	if d.skipSpace() == '}' {
		d.off++
		return nil
	}
	for {
		if d.skipSpace() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		f, err := d.key()
		if err != nil {
			return err
		}
		if d.skipSpace() != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		d.skipSpace()
		if f == fieldUnknown {
			err = d.skip(1)
		} else {
			d.field = solveFields[f]
			err = d.decodeField(f, req)
		}
		if err != nil {
			return err
		}
		switch d.skipSpace() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// decodeField decodes the value of field f into req.
func (d *decoder) decodeField(f int, req *solveRequest) error {
	var err error
	switch f {
	case fieldRows:
		err = intValue(d, &req.Rows)
	case fieldCols:
		err = intValue(d, &req.Cols)
	case fieldRowPtr:
		req.RowPtr, err = array(d, req.RowPtr, d.sizeHint(req.Rows+1), intValue[int])
	case fieldCol:
		req.Col, err = array(d, req.Col, d.sizeHint(lastOf(req.RowPtr)), intValue[int32])
	case fieldVal:
		req.Val, err = array(d, req.Val, d.sizeHint(lastOf(req.RowPtr)), floatValue)
	case fieldB:
		req.B, err = array(d, req.B, d.sizeHint(req.Rows), floatValue)
	case fieldBs:
		n := d.sizeHint(req.Rows)
		req.Bs, err = array(d, req.Bs, 0, func(d *decoder, p *[]float64) error {
			var err error
			*p, err = array(d, *p, n, floatValue)
			return err
		})
	}
	return err
}

// sizeHint clamps an element count read from the body to what the body
// can hold: every element takes at least two bytes, so a 40-byte body
// claiming "rows":2000000000 presizes nothing large.
func (d *decoder) sizeHint(n int) int {
	return min(max(n, 0), len(d.buf)/2)
}

// lastOf returns the last entry of rowptr, the matrix's nonzero count
// when rowptr is well formed, or 0 when it is empty.
func lastOf(rowptr []int) int {
	if len(rowptr) == 0 {
		return 0
	}
	return rowptr[len(rowptr)-1]
}

// array decodes a JSON array, or null, into dst the way encoding/json
// decodes into a slice: null yields nil and [] a fresh empty slice.
// Otherwise the elements decode in place over dst's backing array,
// which a repeated key reuses, so a null element keeps whatever its
// slot held; a nil dst starts with capacity hint. The slice grows only
// past its capacity.
func array[T any](d *decoder, dst []T, hint int, elem func(*decoder, *T) error) ([]T, error) {
	switch d.skipSpace() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return dst, d.want("an array")
	}
	d.off++
	if d.skipSpace() == ']' {
		d.off++
		return []T{}, nil
	}
	if dst == nil {
		dst = make([]T, 0, hint)
	}
	for i := 0; ; i++ {
		if i == len(dst) {
			if i < cap(dst) {
				dst = dst[:i+1]
			} else {
				var zero T
				dst = append(dst, zero)
			}
		}
		d.skipSpace()
		if err := elem(d, &dst[i]); err != nil {
			return dst, err
		}
		switch d.skipSpace() {
		case ',':
			d.off++
		case ']':
			d.off++
			return dst[:i+1], nil
		default:
			return dst, d.syntaxError("after array element")
		}
	}
}

// intValue decodes an integer, or null (which leaves *p unchanged),
// rejecting fractions, exponents and values that overflow T.
func intValue[T int | int32](d *decoder, p *T) error {
	var num number
	if isNum, err := d.numberOrNull("an integer", &num); !isNum || err != nil {
		return err
	}
	n, ok := num.int64()
	var err error
	if !ok {
		n, err = strconv.ParseInt(string(d.text(num)), 10, 64)
	}
	if err != nil || int64(T(n)) != n {
		return fmt.Errorf("field %q: number %s is not a valid %T", d.field, d.text(num), *p)
	}
	*p = T(n)
	return nil
}

// floatValue decodes a number, or null (which leaves *p unchanged),
// rejecting values beyond float64's range.
func floatValue(d *decoder, p *float64) error {
	var num number
	if isNum, err := d.numberOrNull("a number", &num); !isNum || err != nil {
		return err
	}
	v, ok := num.float64()
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(string(d.text(num)), 64); err != nil {
			return fmt.Errorf("field %q: number %s is not a valid float64", d.field, d.text(num))
		}
	}
	*p = v
	return nil
}

// numberOrNull consumes a number into n, reporting true, or null;
// anything else is not the kind of value the field wants.
func (d *decoder) numberOrNull(kind string, n *number) (bool, error) {
	switch c := d.peek(); {
	case c == 'n':
		return false, d.literal("null")
	case c == '-' || isDigit(c):
		return true, d.number(n)
	}
	return false, d.want(kind)
}

// peek returns the byte at the cursor, 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.buf) {
		return d.buf[d.off]
	}
	return 0
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number is one scanned JSON number: where its text lies in the body,
// and its value as read from the digits during the scan, ±mant × 10^exp.
// mant holds the significant digits (leading zeros dropped); it is exact
// while nd, the count of those digits, is at most 19. The struct holds
// no pointer, so filling it costs no write barrier.
type number struct {
	start  int
	end    int
	mant   uint64
	nd     int
	exp    int
	neg    bool
	nonInt bool // has a fraction or an exponent
}

// text returns the body bytes of n.
func (d *decoder) text(n number) []byte { return d.buf[n.start:n.end] }

// int64 returns an integer's value when it has at most 18 digits, which
// every int64 holds; ok is false otherwise, and the caller parses the
// text.
func (n *number) int64() (v int64, ok bool) {
	if n.nonInt || n.nd > 18 {
		return 0, false
	}
	v = int64(n.mant)
	if n.neg {
		v = -v
	}
	return v, true
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float64 returns the number's value when one correctly rounded
// multiply or divide yields it (Clinger's fast path): a significand of
// at most 15 digits, below 2^53 so exact in float64, and |exp| <= 22,
// an exact power of ten. That is strconv.ParseFloat's result bit for
// bit, -0 included; ok is false otherwise, and the caller parses the
// text.
func (n *number) float64() (v float64, ok bool) {
	if n.nd > 15 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	v = float64(n.mant)
	if n.neg {
		v = -v
	}
	if n.exp < 0 {
		return v / pow10[-n.exp], true
	}
	return v * pow10[n.exp], true
}

// maxExp caps the exponent the scan accumulates: past it, the
// number is off the fast path anyway and its text is parsed.
const maxExp = 1 << 20

// number consumes a JSON number into n,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// checking its grammar and reading its digits in the same pass.
func (d *decoder) number(n *number) error {
	buf, start, i := d.buf, d.off, d.off
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd, exp := 0, 0
	switch {
	case i < len(buf) && buf[i] == '0':
		i++
	case i < len(buf) && isDigit(buf[i]):
		mant, nd, i = mantissa(buf, i, mant, nd)
	default:
		d.off = i
		return d.syntaxError("in numeric literal")
	}
	nonInt := false
	if i < len(buf) && buf[i] == '.' {
		i++
		j := i
		if mant, nd, i = mantissa(buf, i, mant, nd); i == j {
			d.off = i
			return d.syntaxError("after decimal point in numeric literal")
		}
		exp, nonInt = j-i, true
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			eneg = buf[i] == '-'
			i++
		}
		e, j := 0, i
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if e < maxExp {
				e = e*10 + int(buf[i]-'0')
			}
		}
		if i == j {
			d.off = i
			return d.syntaxError("in exponent of numeric literal")
		}
		if eneg {
			e = -e
		}
		exp, nonInt = exp+e, true
	}
	d.off = i
	*n = number{start: start, end: i, mant: mant, nd: nd, exp: exp, neg: neg, nonInt: nonInt}
	return nil
}

// mantissa reads the run of digits at buf[i:] into the significand
// mant of nd significant digits and returns both and the index past
// the run. Leading zeros are not significant; past 19 significant
// digits mant wraps, and nd sends the number to strconv.
func mantissa(buf []byte, i int, mant uint64, nd int) (uint64, int, int) {
	for ; i < len(buf); i++ {
		c := buf[i] - '0'
		if c > 9 {
			break
		}
		if nd > 0 || c != 0 {
			mant = mant*10 + uint64(c)
			nd++
		}
	}
	return mant, nd, i
}

// str consumes a string literal and returns its raw contents between
// the quotes, reporting whether they hold any escape.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	d.off++ // '"'
	start := d.off
	for d.off < len(d.buf) {
		switch c := d.buf[d.off]; {
		case c == '"':
			d.off++
			return d.buf[start : d.off-1], escaped, nil
		case c == '\\':
			escaped = true
			d.off++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for range 4 {
					if !isHex(d.peek()) {
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
					d.off++
				}
			default:
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.syntaxError("in string literal")
		default:
			d.off++
		}
	}
	return nil, false, d.syntaxError("in string literal")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// key consumes an object key and returns the field it names.
func (d *decoder) key() (int, error) {
	raw, escaped, err := d.str()
	if err != nil {
		return 0, err
	}
	var buf [16]byte
	if escaped {
		var ok bool
		if raw, ok = unescapeKey(buf[:0], raw); !ok {
			return fieldUnknown, nil
		}
	}
	if len(raw) <= len(buf) {
		for f, name := range solveFields {
			if strings.EqualFold(string(raw), name) {
				return f, nil
			}
		}
	}
	return fieldUnknown, nil
}

// unescapeKey appends the unescaped form of a well-formed string's raw
// contents to dst while it fits in dst's capacity. It reports false
// when the key cannot name a field: it is longer than that, or it holds
// a UTF-16 surrogate escape, which encoding/json decodes to U+FFFD or a
// rune beyond the BMP, neither of which folds to a field-name letter.
func unescapeKey(dst, raw []byte) ([]byte, bool) {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '\\' {
			i++
			switch c = raw[i]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				r, _ := strconv.ParseUint(string(raw[i+1:i+5]), 16, 16)
				i += 4
				if 0xd800 <= r && r < 0xe000 || len(dst)+utf8.RuneLen(rune(r)) > cap(dst) {
					return dst, false
				}
				dst = utf8.AppendRune(dst, rune(r))
				continue
			}
		}
		if len(dst) == cap(dst) {
			return dst, false
		}
		dst = append(dst, c)
	}
	return dst, true
}

// skip checks and consumes one value of any kind; depth counts the
// arrays and objects enclosing it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '"':
		_, _, err := d.str()
		return err
	case 'n':
		return d.literal("null")
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case '{', '[':
		if depth >= maxNestingDepth {
			return d.syntaxError("exceeding the maximum nesting depth")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		d.off++
		if d.skipSpace() == end {
			d.off++
			return nil
		}
		for {
			if c == '{' {
				if d.skipSpace() != '"' {
					return d.syntaxError("looking for beginning of object key string")
				}
				if _, _, err := d.str(); err != nil {
					return err
				}
				if d.skipSpace() != ':' {
					return d.syntaxError("after object key")
				}
				d.off++
			}
			d.skipSpace()
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			switch d.skipSpace() {
			case ',':
				d.off++
			case end:
				d.off++
				return nil
			default:
				return d.syntaxError("after array element or object value")
			}
		}
	default:
		if c == '-' || isDigit(c) {
			var n number
			return d.number(&n)
		}
		return d.syntaxError("looking for beginning of value")
	}
}
