package circuit

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a text with more than this
// many open objects and arrays is rejected.
const maxDepth = 10000

// Lexer is a one-pass JSON scanner. It accepts exactly the texts
// encoding/json accepts, and its value methods store what encoding/json
// stores into a string, integer or raw field, so a hand-written decoder
// built on it behaves like json.Unmarshal into a struct. Unlike
// json.Unmarshal it stops at the first error, syntax or type.
type Lexer struct {
	data  []byte
	off   int
	depth int  // open objects and arrays around off
	ws    bool // whether any whitespace was skipped
}

// NewLexer returns a Lexer over data, positioned at its start.
func NewLexer(data []byte) Lexer { return Lexer{data: data} }

// errEOF reports a text that ends inside a value.
var errEOF = errors.New("unexpected end of JSON input")

// syntaxErr reports the byte at the current offset.
func (l *Lexer) syntaxErr() error {
	if l.off >= len(l.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", l.data[l.off], l.off)
}

// typeErr reports a value of the wrong type at the current offset,
// naming what was wanted and the JSON type found.
func (l *Lexer) typeErr(want string) error {
	got := "nothing"
	if l.off < len(l.data) {
		switch c := l.data[l.off]; {
		case c == '{':
			got = "object"
		case c == '[':
			got = "array"
		case c == '"':
			got = "string"
		case c == 't' || c == 'f':
			got = "bool"
		case c == 'n':
			got = "null"
		case c == '-' || '0' <= c && c <= '9':
			got = "number"
		default:
			return l.syntaxErr()
		}
	}
	return fmt.Errorf("want %s, got %s at offset %d", want, got, l.off)
}

// skipWS skips JSON whitespace and returns the next byte, or 0 at the end
// of the text.
func (l *Lexer) skipWS() byte {
	if l.off < len(l.data) && l.data[l.off] > ' ' {
		return l.data[l.off]
	}
	return l.skipSpace()
}

// skipSpace is skipWS's loop, kept out of line so skipWS inlines.
func (l *Lexer) skipSpace() byte {
	for l.off < len(l.data) {
		switch c := l.data[l.off]; c {
		case ' ', '\t', '\n', '\r':
			l.off++
			l.ws = true
		default:
			return c
		}
	}
	return 0
}

// open consumes the '{' or '[' at the current offset.
func (l *Lexer) open() error {
	l.off++
	if l.depth++; l.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// next moves to the next element of the object or array just opened:
// it consumes the separator before it (none when first is set) and
// reports false, having consumed the closing byte, at the end.
func (l *Lexer) next(first bool, closing byte) (bool, error) {
	c := l.skipWS()
	switch {
	case c == closing:
		l.off++
		l.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		l.off++
		l.skipWS()
		return true, nil
	}
	return false, l.syntaxErr()
}

// key scans an object member's key and the colon after it, returning the
// key unescaped and whether it appeared in the text without escapes.
func (l *Lexer) key() ([]byte, bool, error) {
	if l.off >= len(l.data) || l.data[l.off] != '"' {
		return nil, false, l.syntaxErr()
	}
	k, raw, err := l.str()
	if err != nil {
		return nil, false, err
	}
	if l.skipWS() != ':' {
		return nil, false, l.syntaxErr()
	}
	l.off++
	l.skipWS()
	return k, raw, nil
}

// literal consumes the literal lit (true, false or null).
func (l *Lexer) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if l.off >= len(l.data) || l.data[l.off] != lit[i] {
			return l.syntaxErr()
		}
		l.off++
	}
	return nil
}

// null consumes a null if one is next and reports whether it did.
func (l *Lexer) null() (bool, error) {
	if l.skipWS() == 'n' {
		return true, l.literal("null")
	}
	return false, nil
}

// number consumes a number and returns its literal bytes.
func (l *Lexer) number() ([]byte, error) {
	d, start := l.data, l.off
	i := l.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		l.off = i
		return nil, l.syntaxErr()
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); d[i-1] == '.' {
			l.off = i
			return nil, l.syntaxErr()
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		n := i
		if i = digits(d, i); i == n {
			l.off = i
			return nil, l.syntaxErr()
		}
	}
	l.off = i
	return d[start:i], nil
}

// digits returns the offset of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// str consumes a string and returns its contents unescaped as
// encoding/json unescapes them: invalid UTF-8 and unpaired surrogates
// become U+FFFD. raw reports that the contents needed no unescaping, in
// which case s aliases the text.
func (l *Lexer) str() (s []byte, raw bool, err error) {
	d := l.data
	start := l.off + 1
	plain := true
	i := start
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			l.off = i + 1
			if plain {
				return d[start:i], true, nil
			}
			return unquote(d[start:i]), false, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(d) || !isHex(d[i+k]) {
						l.off = i + k
						return nil, false, l.syntaxErr()
					}
				}
				i += 5
			default:
				l.off = i
				return nil, false, l.syntaxErr()
			}
		case c < ' ':
			l.off = i
			return nil, false, l.syntaxErr()
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			i += n
		}
	}
	l.off = len(d)
	return nil, false, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote unescapes the contents of a string the lexer has already
// checked.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
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
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, n := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += n
		}
	}
	return b
}

// hex4 decodes the four hex digits at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Skip consumes one value of any type.
func (l *Lexer) Skip() error {
	switch c := l.skipWS(); {
	case c == '{':
		if err := l.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := l.next(first, '}')
			if err != nil || !more {
				return err
			}
			if _, _, err := l.key(); err != nil {
				return err
			}
			if err := l.Skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := l.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := l.next(first, ']')
			if err != nil || !more {
				return err
			}
			if err := l.Skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := l.str()
		return err
	case c == 't':
		return l.literal("true")
	case c == 'f':
		return l.literal("false")
	case c == 'n':
		return l.literal("null")
	default:
		_, err := l.number()
		return err
	}
}

// parseInt converts a number literal as encoding/json stores it into an
// int: it must be an integer in range, so 1.0 and 1e0 are refused.
func parseInt(lit []byte) (int, bool) {
	d := lit
	if d[0] == '-' {
		d = d[1:]
	}
	if len(d) > 18 {
		n, err := strconv.ParseInt(string(lit), 10, 64)
		return int(n), err == nil && int64(int(n)) == n
	}
	var n int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if lit[0] == '-' {
		n = -n
	}
	return int(n), int64(int(n)) == n
}

// Object scans an object, calling fn with each member's unescaped key;
// fn must consume the member's value with one of the value methods. A
// null scans as an object without members, as encoding/json decodes a
// null into a struct.
func (l *Lexer) Object(fn func(key []byte) error) error {
	switch l.skipWS() {
	case 'n':
		return l.literal("null")
	case '{':
	default:
		return l.typeErr("an object")
	}
	if err := l.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := l.next(first, '}')
		if err != nil || !more {
			return err
		}
		k, _, err := l.key()
		if err != nil {
			return err
		}
		if err := fn(k); err != nil {
			return err
		}
	}
}

// String scans a string into dst; a null leaves dst as it is.
func (l *Lexer) String(dst *string) error {
	switch l.skipWS() {
	case 'n':
		return l.literal("null")
	case '"':
		s, _, err := l.str()
		if err == nil {
			*dst = string(s)
		}
		return err
	}
	return l.typeErr("a string")
}

// Int scans an integer into dst; a null leaves dst as it is.
func (l *Lexer) Int(dst *int) error {
	if null, err := l.null(); null {
		return err
	}
	n, _, err := l.integer()
	if err == nil {
		*dst = n
	}
	return err
}

// integer scans an integer, reporting whether its literal is the one
// strconv.AppendInt writes.
func (l *Lexer) integer() (int, bool, error) {
	if c := l.skipWS(); c != '-' && (c < '0' || c > '9') {
		return 0, false, l.typeErr("an integer")
	}
	at := l.off
	lit, err := l.number()
	if err != nil {
		return 0, false, err
	}
	n, ok := parseInt(lit)
	if !ok {
		return 0, false, fmt.Errorf("want an integer, got number %s at offset %d", lit, at)
	}
	return n, string(lit) != "-0", nil
}

// Raw scans one value of any type and returns its bytes.
func (l *Lexer) Raw() ([]byte, error) {
	l.skipWS()
	start := l.off
	if err := l.Skip(); err != nil {
		return nil, err
	}
	return l.data[start:l.off], nil
}

// End checks that nothing but whitespace follows the value scanned.
func (l *Lexer) End() error {
	if l.skipWS() != 0 || l.off < len(l.data) {
		return fmt.Errorf("invalid character %q after top-level value", l.data[l.off])
	}
	return nil
}

// KeyIs reports whether an unescaped object key selects the struct field
// named name (lowercase ASCII), as encoding/json matches keys: exactly,
// or else under Unicode case folding, so "Qubits" and "QUBITS" select
// "qubits".
func KeyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		var r rune
		if c := key[i]; c < utf8.RuneSelf {
			r = rune(c)
			i++
		} else {
			rr, n := utf8.DecodeRune(key[i:])
			r = foldRune(rr)
			i += n
		}
		if j >= len(name) || upper(r) != upper(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

// upper maps an ASCII lowercase letter to its capital.
func upper(r rune) rune {
	if 'a' <= r && r <= 'z' {
		r -= 'a' - 'A'
	}
	return r
}

// foldRune returns the smallest rune of r's case-folding orbit, as
// encoding/json folds key runes outside ASCII.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// decoder builds a circuit from its wire form. Besides the checks every
// decode makes, it tracks whether the text is byte for byte the
// canonical form AppendJSON writes.
//
// Gates are scanned straight into the circuit's gate list and validated
// once the whole text is read. Until then a gate's Kind holds its kind
// plus one, so the zero Gate that an element with no "kind" leaves reads
// as the unknown kind "", as encoding/json's zero struct does; a kind
// text that names no kind is held as -1-i, i indexing names.
type decoder struct {
	Lexer
	out       Circuit // numQubits and the arena holding qubit operands
	gates     []Gate
	hist      int // gates[len(gates):hist] hold earlier arrays' elements
	names     []string
	vals      []int // the qubit array being scanned
	nulls     []int // indexes of its null elements
	angles    [256]angle
	canonical bool
}

// DecodeJSON parses the wire form MarshalJSON emits, validating every gate
// against the register as UnmarshalJSON does, and reports whether data was
// byte for byte the canonical form: the bytes AppendJSON writes for the
// decoded circuit. It accepts what encoding/json would accept for the
// wire form: whitespace, keys in any order and any letter case, unknown
// keys, string escapes, nulls and repeated keys, each with encoding/json's
// meaning.
func DecodeJSON(data []byte) (c *Circuit, canonical bool, err error) {
	d := decoder{Lexer: NewLexer(data), canonical: true}
	// Each '{' opens at most one gate, and a gate takes at least 26 bytes
	// in the canonical form, so this reserves the list of a canonical
	// text exactly and no more than a few bytes per byte of any other.
	d.gates = make([]Gate, 0, min(bytes.Count(data, []byte{'{'}), len(data)/26+1))
	if err := d.circuit(); err != nil {
		return nil, false, fmt.Errorf("circuit: %w", err)
	}
	if err := d.End(); err != nil {
		return nil, false, fmt.Errorf("circuit: %w", err)
	}
	c, err = d.build()
	if err != nil {
		return nil, false, err
	}
	return c, d.canonical && !d.ws, nil
}

// circuit scans the top-level object.
func (d *decoder) circuit() error {
	switch d.skipWS() {
	case 'n':
		d.canonical = false
		return d.literal("null")
	case '{':
	default:
		return d.typeErr("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	members := 0
	for first := true; ; first = false {
		more, err := d.next(first, '}')
		if err != nil {
			return err
		}
		if !more {
			d.canonical = d.canonical && members == 2
			return nil
		}
		k, raw, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case KeyIs(k, "qubits"):
			d.canonical = d.canonical && raw && members == 0 && string(k) == "qubits"
			err = d.width()
		case KeyIs(k, "gates"):
			d.canonical = d.canonical && raw && members == 1 && string(k) == "gates"
			err = d.gateList()
		default:
			d.canonical = false
			err = d.Skip()
		}
		if err != nil {
			return err
		}
		members++
	}
}

// width scans the register width.
func (d *decoder) width() error {
	if null, err := d.null(); null {
		d.canonical = false
		return err
	}
	n, canonical, err := d.integer()
	d.out.numQubits = n
	d.canonical = d.canonical && canonical
	return err
}

// gateList scans the gate array. Like encoding/json decoding into a
// slice, an element decodes into what the same index held after any
// earlier "gates" array, and null or [] starts the list afresh.
func (d *decoder) gateList() error {
	switch d.skipWS() {
	case 'n':
		d.canonical = false
		d.resetGates()
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.next(first, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i == len(d.gates) {
			if i < d.hist {
				d.gates = d.gates[:i+1]
			} else {
				d.gates = append(d.gates, Gate{})
				d.hist = i + 1
			}
		}
		switch d.skipWS() {
		case 'n':
			d.canonical = false
			err = d.literal("null")
		case '{':
			err = d.gate(&d.gates[i])
		default:
			err = d.typeErr("a gate object")
		}
		if err != nil {
			return err
		}
		i++
	}
	if i == 0 {
		d.resetGates()
	}
	d.gates = d.gates[:i]
	return nil
}

// resetGates forgets every gate scanned so far.
func (d *decoder) resetGates() {
	clear(d.gates[:d.hist])
	d.gates, d.hist = d.gates[:0], 0
}

// gate scans one gate object into g.
func (d *decoder) gate(g *Gate) error {
	if err := d.open(); err != nil {
		return err
	}
	members := 0
	for first := true; ; first = false {
		more, err := d.next(first, '}')
		if err != nil {
			return err
		}
		if !more {
			// The canonical form writes theta exactly when it is non-zero.
			want := 2
			if g.Theta != 0 {
				want = 3
			}
			d.canonical = d.canonical && members == want
			return nil
		}
		k, raw, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case KeyIs(k, "kind"):
			d.canonical = d.canonical && raw && members == 0 && string(k) == "kind"
			err = d.kind(g)
		case KeyIs(k, "qubits"):
			d.canonical = d.canonical && raw && members == 1 && string(k) == "qubits"
			g.Qubits, err = d.operands(g.Qubits)
		case KeyIs(k, "theta"):
			d.canonical = d.canonical && raw && members == 2 && string(k) == "theta"
			err = d.theta(g)
		default:
			d.canonical = false
			err = d.Skip()
		}
		if err != nil {
			return err
		}
		members++
	}
}

// kind scans a gate's kind mnemonic.
func (d *decoder) kind(g *Gate) error {
	switch d.skipWS() {
	case 'n':
		d.canonical = false
		return d.literal("null")
	case '"':
	default:
		return d.typeErr("a string")
	}
	s, raw, err := d.str()
	if err != nil {
		return err
	}
	d.canonical = d.canonical && raw
	if k, ok := kindsByName[string(s)]; ok {
		g.Kind = k + 1
	} else {
		g.Kind = Kind(-1 - len(d.names))
		d.names = append(d.names, string(s))
	}
	return nil
}

// operands scans a gate's qubit array. As encoding/json decodes into a
// slice, a null element keeps what old held at its index, and old's
// storage is reused when it is large enough.
func (d *decoder) operands(old []int) ([]int, error) {
	switch d.skipWS() {
	case 'n':
		d.canonical = false
		return nil, d.literal("null")
	case '[':
	default:
		return old, d.typeErr("an array")
	}
	if err := d.open(); err != nil {
		return old, err
	}
	vals, nulls := d.vals[:0], d.nulls[:0]
	for first := true; ; first = false {
		more, err := d.next(first, ']')
		if err != nil {
			return old, err
		}
		if !more {
			break
		}
		if null, err := d.null(); null {
			if err != nil {
				return old, err
			}
			d.canonical = false
			nulls = append(nulls, len(vals))
			vals = append(vals, 0)
			continue
		}
		q, canonical, err := d.integer()
		if err != nil {
			return old, err
		}
		d.canonical = d.canonical && canonical
		vals = append(vals, q)
	}
	d.vals, d.nulls = vals, nulls
	if len(vals) == 0 {
		return []int{}, nil
	}
	for _, j := range nulls {
		if j < cap(old) {
			vals[j] = old[:cap(old)][j]
		}
	}
	if len(vals) <= cap(old) {
		old = old[:len(vals)]
		copy(old, vals)
		return old, nil
	}
	return d.out.store(vals), nil
}

// theta scans a gate's rotation angle.
func (d *decoder) theta(g *Gate) error {
	if null, err := d.null(); null {
		d.canonical = false
		return err
	}
	if c := d.skipWS(); c != '-' && (c < '0' || c > '9') {
		return d.typeErr("a number")
	}
	at := d.off
	lit, err := d.number()
	if err != nil {
		return err
	}
	// Circuits repeat a few angles many times (QFT's π/2^k, QAOA's
	// layer angles), so each literal's value and canonicity are memoized.
	m := &d.angles[angleSlot(lit)]
	if string(m.lit) != string(lit) {
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return fmt.Errorf("theta %s at offset %d out of range", lit, at)
		}
		var buf [32]byte
		*m = angle{lit: lit, f: f, canonical: string(appendFloat(buf[:0], f)) == string(lit)}
	}
	g.Theta = m.f
	d.canonical = d.canonical && m.canonical
	return nil
}

// angle is one memoized theta literal: its value, and whether the literal
// is the one appendFloat writes for it.
type angle struct {
	lit       []byte
	f         float64
	canonical bool
}

// angleSlot hashes a theta literal to its memo slot.
func angleSlot(lit []byte) int {
	h := uint32(2166136261) // FNV-1a
	for _, c := range lit {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(len(decoder{}.angles)))
}

// build validates the scanned circuit as UnmarshalJSON always has: the
// width first, then each gate in order.
func (d *decoder) build() (*Circuit, error) {
	c := d.out
	if c.numQubits <= 0 {
		return nil, fmt.Errorf("circuit: non-positive qubit count %d", c.numQubits)
	}
	c.gates = d.gates
	for i := range c.gates {
		g := &c.gates[i]
		switch {
		case g.Kind == 0:
			return nil, fmt.Errorf("gate %d: circuit: unknown gate kind %q", i, "")
		case g.Kind < 0:
			return nil, fmt.Errorf("gate %d: circuit: unknown gate kind %q", i, d.names[-1-g.Kind])
		}
		g.Kind--
		g.Qubits = g.Qubits[:len(g.Qubits):len(g.Qubits)]
		if err := g.validate(); err != nil {
			return nil, fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= c.numQubits {
				return nil, fmt.Errorf("gate %d: qubit %d out of range [0,%d)", i, q, c.numQubits)
			}
		}
	}
	c.arena = nil // the gates own every window of it
	return &c, nil
}

// AppendJSON appends the circuit's canonical wire form to dst: the bytes
// json.Marshal writes for it, with theta written only when non-zero and
// floats formatted as encoding/json formats them.
func (c *Circuit) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"qubits":`...)
	dst = strconv.AppendInt(dst, int64(c.numQubits), 10)
	dst = append(dst, `,"gates":[`...)
	for i, g := range c.gates {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"kind":"`...)
		dst = append(dst, g.Kind.String()...)
		dst = append(dst, `","qubits":[`...)
		for j, q := range g.Qubits {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(q), 10)
		}
		dst = append(dst, ']')
		if g.Theta != 0 {
			dst = append(dst, `,"theta":`...)
			dst = appendFloat(dst, g.Theta)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendFloat formats f as encoding/json does: the shortest 'f' form, or
// 'e' outside [1e-6, 1e21) with a one-digit exponent kept to one digit.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
