// Package jsonwire is the hand-rolled JSON codec of the serving path: an
// append-style encoder whose output is byte-identical to encoding/json,
// and Dec, a one-pass decoding cursor that accepts exactly what
// encoding/json accepts.
//
// Dec exists because decoding a /v1/analyze body with encoding/json
// scanned every task set three times: json.Decoder validated the body,
// the set was re-split into per-task json.RawMessage values, and every
// task was validated and decoded once more. Dec walks a complete
// in-memory document once. The caller drives it value by value, in the
// shape of the Go type it fills, and every value the caller does not
// want is skipped with full syntax validation. The typed readers follow
// encoding/json's rules for the field types they stand for: null leaves
// the destination unchanged, a value of the wrong JSON kind is a
// *TypeError, and a number must parse as an in-range integer. Keys match
// fields case-insensitively, as encoding/json matches them (KeyIs).
package jsonwire

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// Kind classifies the next value by its first byte.
type Kind byte

// Value kinds. Invalid covers the end of input and any byte that cannot
// start a JSON value.
const (
	Invalid Kind = iota
	Null
	Bool
	Number
	String
	Array
	Object
)

// SyntaxError is a malformed document, worded as encoding/json words it.
type SyntaxError struct{ Msg string }

func (e *SyntaxError) Error() string { return e.Msg }

// TypeError is a well-formed value of the wrong kind for its destination.
type TypeError struct {
	Value string // what was found: "string", "object", "number 1.5", …
	Field string // the destination, as the caller names it
	Type  string // the Go type it wanted
}

func (e *TypeError) Error() string {
	return "json: cannot unmarshal " + e.Value + " into " + e.Field + " of type " + e.Type
}

// Dec is a cursor over one complete JSON document. Reading methods
// consume from the front. The first syntax error latches into Err; after
// it every method is a no-op, so a decode sequence checks Err once at
// the end.
type Dec struct {
	data  []byte
	off   int
	depth int
	err   error
	buf   []byte // unescaped string scratch
	nest  []byte // closing brackets of the containers Skip is inside
}

// NewDec returns a cursor over data, which it does not copy.
func NewDec(data []byte) *Dec { return &Dec{data: data} }

// Err returns the first syntax error, if any.
func (d *Dec) Err() error { return d.err }

// End checks that only whitespace follows the value just read, as
// json.Unmarshal requires, and returns Err.
func (d *Dec) End() error {
	if d.err == nil {
		d.ws()
		if d.off < len(d.data) {
			d.syntax("after top-level value")
		}
	}
	return d.err
}

// Peek skips whitespace and classifies the next value without consuming
// it.
func (d *Dec) Peek() Kind {
	if d.err != nil {
		return Invalid
	}
	d.ws()
	if d.off >= len(d.data) {
		return Invalid
	}
	switch c := d.data[d.off]; {
	case c == '{':
		return Object
	case c == '[':
		return Array
	case c == '"':
		return String
	case c == 'n':
		return Null
	case c == 't' || c == 'f':
		return Bool
	case c == '-' || '0' <= c && c <= '9':
		return Number
	}
	return Invalid
}

// Skip consumes one value of any kind, validating it. Nested arrays and
// objects are walked with an explicit stack of their closing brackets,
// not by recursion: a 20 KB value nested 10000 deep then costs 10 KB
// here instead of megabytes of goroutine stack.
func (d *Dec) Skip() {
	base := len(d.nest)
	for {
		// A value starts here.
		switch d.Peek() {
		case Object, Array:
			closer := byte(']')
			if d.data[d.off] == '{' {
				closer = '}'
			}
			if !d.open() {
				return
			}
			d.ws()
			if d.off < len(d.data) && d.data[d.off] == closer {
				d.off++
				d.depth--
				break // an empty container is a whole value
			}
			d.nest = append(d.nest, closer)
			if closer == '}' {
				if _, ok := d.key(); !ok {
					return
				}
			}
			continue
		case String:
			d.str()
		case Number:
			d.number()
		case Null:
			d.literal("null")
		case Bool:
			if d.data[d.off] == 't' {
				d.literal("true")
			} else {
				d.literal("false")
			}
		default:
			d.syntax("looking for beginning of value")
			return
		}
		// A value ended: close the containers it completes, then go on
		// to the next member.
		for {
			if d.err != nil || len(d.nest) == base {
				return
			}
			closer := d.nest[len(d.nest)-1]
			d.ws()
			if d.off < len(d.data) && d.data[d.off] == ',' {
				d.off++
				if closer == '}' {
					if _, ok := d.key(); !ok {
						return
					}
				}
				break
			}
			if d.off < len(d.data) && d.data[d.off] == closer {
				d.off++
				d.depth--
				d.nest = d.nest[:len(d.nest)-1]
				continue
			}
			if closer == '}' {
				d.syntax("after object key:value pair")
			} else {
				d.syntax("after array element")
			}
			return
		}
	}
}

// Mismatch consumes the next value as one of the wrong kind for field
// (of Go type typ) and returns the *TypeError encoding/json reports for
// it, or nil when the value is malformed (Err then holds why).
func (d *Dec) Mismatch(field, typ string) error {
	var found string
	switch d.Peek() {
	case Object:
		found = "object"
	case Array:
		found = "array"
	case String:
		found = "string"
	case Number:
		found = "number"
	case Bool:
		found = "bool"
	case Null:
		found = "null"
	}
	d.Skip()
	if d.err != nil {
		return nil
	}
	return &TypeError{Value: found, Field: field, Type: typ}
}

// Object consumes an object (Peek must have returned Object), calling
// member once per key. member must consume exactly one value. key is
// valid only until the next read from d, so match it before reading.
func (d *Dec) Object(member func(key []byte)) {
	if !d.open() {
		return
	}
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == '}' {
		d.off++
		d.depth--
		return
	}
	for {
		key, ok := d.key()
		if !ok {
			return
		}
		member(key)
		if d.err != nil {
			return
		}
		d.ws()
		if d.off < len(d.data) {
			switch d.data[d.off] {
			case ',':
				d.off++
				continue
			case '}':
				d.off++
				d.depth--
				return
			}
		}
		d.syntax("after object key:value pair")
		return
	}
}

// Array consumes an array (Peek must have returned Array), calling elem
// with each element's index. elem must consume exactly one value.
func (d *Dec) Array(elem func(i int)) {
	if !d.open() {
		return
	}
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == ']' {
		d.off++
		d.depth--
		return
	}
	for i := 0; ; i++ {
		elem(i)
		if d.err != nil {
			return
		}
		d.ws()
		if d.off < len(d.data) {
			switch d.data[d.off] {
			case ',':
				d.off++
				continue
			case ']':
				d.off++
				d.depth--
				return
			}
		}
		d.syntax("after array element")
		return
	}
}

// key consumes an object key and its colon and returns the unescaped
// key (valid until the next read).
func (d *Dec) key() ([]byte, bool) {
	d.ws()
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		d.syntax("looking for beginning of object key string")
		return nil, false
	}
	k := d.str()
	d.ws()
	if d.err != nil {
		return nil, false
	}
	if d.off >= len(d.data) || d.data[d.off] != ':' {
		d.syntax("after object key")
		return nil, false
	}
	d.off++
	return k, true
}

// open consumes an opening bracket, enforcing the nesting limit.
func (d *Dec) open() bool {
	if d.err != nil {
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.syntax("exceeded max depth")
		return false
	}
	d.off++
	return true
}

// Int64 reads the next value into *dst as encoding/json fills an int64
// field: a number must be an in-range integer literal, null changes
// nothing, any other kind is a *TypeError. field names the destination
// in errors.
func (d *Dec) Int64(dst *int64, field string) error {
	v, ok, err := d.integer(field, "int64")
	if ok {
		*dst = v
	}
	return err
}

// Int is Int64 for an int destination.
func (d *Dec) Int(dst *int, field string) error {
	v, ok, err := d.integer(field, "int")
	if ok && int64(int(v)) != v {
		ok, err = false, &TypeError{Value: "number " + strconv.FormatInt(v, 10), Field: field, Type: "int"}
	}
	if ok {
		*dst = int(v)
	}
	return err
}

func (d *Dec) integer(field, typ string) (int64, bool, error) {
	switch d.Peek() {
	case Number:
		start := d.off
		integral := d.number()
		if d.err != nil {
			return 0, false, nil
		}
		lit := d.data[start:d.off]
		if integral {
			if v, ok := parseInt(lit); ok {
				return v, true, nil
			}
		}
		return 0, false, &TypeError{Value: "number " + string(lit), Field: field, Type: typ}
	case Null:
		d.literal("null")
		return 0, false, nil
	}
	return 0, false, d.Mismatch(field, typ)
}

// parseInt parses a JSON integer literal (already validated) as
// strconv.ParseInt(lit, 10, 64) would, reporting overflow as !ok.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var u uint64
	for _, c := range lit {
		if u > (1<<64-1)/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
		if u < uint64(c-'0') {
			return 0, false
		}
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// Str reads the next value into *dst as encoding/json fills a string
// field: null changes nothing, a non-string is a *TypeError.
func (d *Dec) Str(dst *string, field string) error {
	switch d.Peek() {
	case String:
		if s := d.str(); d.err == nil {
			*dst = string(s)
		}
		return nil
	case Null:
		d.literal("null")
		return nil
	}
	return d.Mismatch(field, "string")
}

// Bool reads the next value into *dst as encoding/json fills a bool
// field.
func (d *Dec) Bool(dst *bool, field string) error {
	switch d.Peek() {
	case Bool:
		v := d.data[d.off] == 't'
		if v {
			d.literal("true")
		} else {
			d.literal("false")
		}
		if d.err == nil {
			*dst = v
		}
		return nil
	case Null:
		d.literal("null")
		return nil
	}
	return d.Mismatch(field, "bool")
}

// KeyIs reports whether an object key selects the field named name (all
// lower-case ASCII), with encoding/json's case folding: each key rune
// folds to the smallest rune of its unicode.SimpleFold orbit, which must
// be the upper-cased name byte. So "Tasks" and "TASKS" select "tasks",
// and so do "taſks" (U+017F folds to 'S') and "K" for "k" (the
// Kelvin sign folds to 'K').
func KeyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		if j >= len(name) {
			return false
		}
		want := rune(name[j])
		if 'a' <= want && want <= 'z' {
			want -= 'a' - 'A'
		}
		r, n := rune(key[i]), 1
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
		} else {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		if r != want {
			return false
		}
		i += n
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// ws skips JSON whitespace.
func (d *Dec) ws() {
	data, i := d.data, d.off
	for i < len(data) && isSpace[data[i]] {
		i++
	}
	d.off = i
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// literal consumes the keyword word.
func (d *Dec) literal(word string) {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) {
			d.eof()
			return
		}
		if d.data[d.off] != word[i] {
			if i == 0 {
				d.syntax("looking for beginning of value")
			} else {
				d.syntax(fmt.Sprintf("in literal %s (expecting %s)", word, quoteChar(word[i])))
			}
			return
		}
		d.off++
	}
}

// number consumes a number literal and reports whether it is an integer
// (no fraction or exponent).
func (d *Dec) number() (integral bool) {
	data, i := d.data, d.off
	if data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		d.off = i
		d.eof()
		return false
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.off = i
		d.syntax("in numeric literal")
		return false
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		integral = false
		if i = d.digitsAfter(i+1, "after decimal point in numeric literal"); i < 0 {
			return false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i = d.digitsAfter(i, "in exponent of numeric literal"); i < 0 {
			return false
		}
	}
	d.off = i
	return integral
}

// digitsAfter requires at least one decimal digit at i and returns the
// index past the run, or -1 after latching a syntax error.
func (d *Dec) digitsAfter(i int, context string) int {
	d.off = i
	if i >= len(d.data) {
		d.eof()
		return -1
	}
	if c := d.data[i]; c < '0' || c > '9' {
		d.syntax(context)
		return -1
	}
	return digits(d.data, i+1)
}

// digits returns the index past the run of decimal digits at i.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// str consumes a string literal and returns its unescaped content:
// a subslice of the input when it holds no escapes or invalid UTF-8,
// else the scratch buffer. Either way it is valid until the next read.
func (d *Dec) str() []byte {
	d.off++ // opening quote
	start := d.off
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i]
		case c == '\\':
			return d.strSlow(start, i)
		case c < 0x20:
			d.off = i
			d.syntax("in string literal")
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				return d.strSlow(start, i)
			}
			i += n
		}
	}
	d.off = len(d.data)
	d.eof()
	return nil
}

// strSlow finishes a string from i, the first byte needing escape
// processing or UTF-8 repair, with encoding/json's unquoting rules:
// invalid UTF-8 bytes and unpaired surrogate escapes each become U+FFFD.
func (d *Dec) strSlow(start, i int) []byte {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			d.buf = b
			return b
		case c < 0x20:
			d.off = i
			d.syntax("in string literal")
			return nil
		case c == '\\':
			var e byte // stays 0 at the end of input, reported as EOF below
			if i+1 < len(d.data) {
				e = d.data[i+1]
			}
			switch e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, n := hex4(d.data[i+2:])
				if n < 4 {
					d.off = i + 2 + n
					d.syntax(`in \u hexadecimal character escape`)
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Pair it with a directly following \u escape; a bad one
					// is reported when the loop reaches it.
					if rest := d.data[i:]; len(rest) >= 6 && rest[0] == '\\' && rest[1] == 'u' {
						if r2, n := hex4(rest[2:6]); n == 4 {
							if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
								b = utf8.AppendRune(b, dec)
								i += 6
								continue
							}
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				d.syntax("in string escape code")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, r)
			} else {
				b = append(b, d.data[i:i+n]...)
			}
			i += n
		}
	}
	d.buf = b
	d.off = len(d.data)
	d.eof()
	return nil
}

// hex4 decodes up to four hex digits at the front of s and reports how
// many it read: 4 for a complete \u escape.
func hex4(s []byte) (r rune, n int) {
	for ; n < 4 && n < len(s); n++ {
		c := s[n]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return r, n
		}
		r = r*16 + rune(c)
	}
	return r, n
}

func (d *Dec) syntax(context string) {
	if d.err != nil {
		return
	}
	if d.off >= len(d.data) {
		d.eof()
		return
	}
	d.err = &SyntaxError{"invalid character " + quoteChar(d.data[d.off]) + " " + context}
}

func (d *Dec) eof() {
	if d.err == nil {
		d.err = &SyntaxError{"unexpected end of JSON input"}
	}
}

// quoteChar formats c as encoding/json's syntax errors quote it.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(c))
	return "'" + s[1:len(s)-1] + "'"
}
