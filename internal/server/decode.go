package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"qaoaml/internal/problem"
)

// The two request bodies, SolveRequest and BatchRequest, are decoded by
// a purpose-built scanner instead of encoding/json's reflection: on a
// cached answer the decode was the largest single cost of a request.
// encoding/json stays the specification. With DisallowUnknownFields and
// the one-value check of decodeBody, the scanner accepts exactly the
// bodies encoding/json accepts and produces the same value from them
// (FuzzDecodeRequest holds it to that on arbitrary bytes), including
// the library's less obvious rules:
//
//   - a key matches its field exactly, else case-insensitively
//     (bytes.EqualFold, as encoding/json folds);
//   - a repeated key decodes again over what the earlier one stored, so
//     the last wins for scalars and slices are refilled in place;
//   - null sets a slice to nil and leaves any other field alone;
//   - a [2]int takes zeros for missing elements and skips extra ones;
//   - an integer field refuses fractions, exponents and overflow, a
//     float field refuses overflow;
//   - strings keep their escapes, surrogates and U+FFFD for invalid
//     UTF-8: a string holding a backslash or a byte ≥ 0x80 is unquoted
//     by encoding/json itself.

// maxNesting is encoding/json's nesting limit: a body nested deeper is
// a syntax error there, and so here.
const maxNesting = 10000

// solveRequestKeys and the other key tables list the JSON keys each
// decoded struct has, for the case-insensitive fallback; every entry
// has a case in the struct's exact-match switch. TestCodecCoversTags
// holds them to the structs' tags.
var (
	solveRequestKeys = [...]string{
		"problem", "nodes", "edges", "weights", "linear", "quad", "offset", "sense", "vars",
		"clauses", "clause_weights", "numbers", "returns", "covariance", "risk_aversion",
		"budget", "penalty", "colors", "depth", "strategy", "optimizer", "model", "seed",
		"timeout_ms", "wait",
	}
	wireTermKeys     = [...]string{"i", "j", "w"}
	batchRequestKeys = [...]string{"items"}
)

// requestBody is a request type with its own decoder.
type requestBody interface {
	decode(s *scanner) bool
}

func (r *SolveRequest) decode(s *scanner) bool { return s.solveRequest(r) }
func (r *BatchRequest) decode(s *scanner) bool { return s.batchRequest(r) }

// decodeRequest decodes one request body held in data into v.
func decodeRequest(data []byte, v requestBody) error {
	s := scanner{data: data}
	v.decode(&s)
	return s.top()
}

// bodyPool recycles body buffers: a decoded request shares no memory
// with its body (every string is copied out).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers bodyPool keeps, and the buffer a
// declared length pre-sizes: a rare large body is left to the collector,
// and grows only as its bytes arrive.
const maxPooledBody = 64 << 10

// decodeBody decodes a request body of at most limit bytes into v.
// Unknown keys are rejected, not ignored: with per-family payloads a
// silently dropped field would solve a different instance than the
// client thinks it submitted. For the same reason the body must hold
// exactly one JSON value: anything but whitespace after it is refused.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v requestBody) *httpError {
	buf := bodyPool.Get().(*[]byte)
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), (*buf)[:0], r.ContentLength, limit)
	if err == nil {
		err = decodeRequest(body, v)
	}
	if cap(body) <= maxPooledBody {
		*buf = body[:0]
		bodyPool.Put(buf)
	}
	if err != nil {
		return badRequest("decoding request: %v", err)
	}
	return nil
}

// readBody reads r to its end into buf. The buffer is sized from the
// declared length when that is within limit, up to maxPooledBody, and
// otherwise grown as bytes arrive, never past limit+1: a forged or
// unfulfilled Content-Length buys at most maxPooledBody bytes. The
// caller's reader enforces limit itself.
func readBody(r io.Reader, buf []byte, declared, limit int64) ([]byte, error) {
	if want := min(declared, maxPooledBody) + 1; declared > 0 && declared <= limit && int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) > int(limit) {
			return buf, &http.MaxBytesError{Limit: limit} // r did not enforce limit
		}
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), 512), int(limit)+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanner walks one body once. Its methods return false once an error
// is recorded, and every caller then returns at once.
type scanner struct {
	data  []byte
	off   int
	depth int // open arrays and objects
	keyAt int // offset of the last object key
	err   error
}

// fail records the body's refusal, naming the offset it was refused at.
func (s *scanner) fail(msg string) bool {
	if s.err == nil {
		s.err = fmt.Errorf("%s at offset %d", msg, s.off)
	}
	return false
}

// top finishes a body whose value has been decoded: only whitespace may
// follow it.
func (s *scanner) top() error {
	if s.err != nil {
		return s.err
	}
	if s.peek(); s.off < len(s.data) {
		return errTrailing
	}
	return nil
}

var errTrailing = errors.New("trailing data after the JSON value")

// peek skips whitespace and returns the next byte (0 at the end).
func (s *scanner) peek() byte {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// unexpected refuses the byte at the offset, or the end of the input.
func (s *scanner) unexpected(context string) bool {
	if s.off >= len(s.data) {
		return s.fail("unexpected end of JSON input")
	}
	return s.fail(fmt.Sprintf("invalid character %q %s", s.data[s.off], context))
}

// mismatch refuses a well-formed value of the wrong kind for its field.
func (s *scanner) mismatch(want string) bool {
	switch c := s.peek(); {
	case c == '"', c == '[', c == '{', c == 't', c == 'f', c == 'n', c == '-', '0' <= c && c <= '9':
		return s.fail(fmt.Sprintf("cannot decode %s into %s", kindOf(c), want))
	}
	return s.unexpected("looking for beginning of value")
}

func kindOf(c byte) string {
	switch c {
	case '"':
		return "a string"
	case '[':
		return "an array"
	case '{':
		return "an object"
	case 't', 'f':
		return "a boolean"
	case 'n':
		return "null"
	}
	return "a number"
}

// literal consumes the keyword lit (true, false or null).
func (s *scanner) literal(lit string) bool {
	for i := 0; i < len(lit); i, s.off = i+1, s.off+1 {
		if s.off >= len(s.data) || s.data[s.off] != lit[i] {
			return s.unexpected("in literal " + lit)
		}
	}
	return true
}

// open consumes null (null = true) or the opening bracket of an array
// or object; want names the expected value for a mismatch.
func (s *scanner) open(bracket byte, want string) (null, ok bool) {
	switch s.peek() {
	case 'n':
		return true, s.literal("null")
	case bracket:
		s.off++
		if s.depth++; s.depth > maxNesting {
			return false, s.fail("exceeded max depth")
		}
		return false, true
	}
	return false, s.mismatch(want)
}

// more reports whether another element or member follows in the open
// array or object: false after consuming the closing bracket (or on an
// error), true after consuming the separating comma — or, before the
// first element, without consuming anything.
func (s *scanner) more(closing byte, first bool) bool {
	switch c := s.peek(); {
	case c == closing:
		s.off++
		s.depth--
		return false
	case first:
		return true
	case c == ',':
		s.off++
		return true
	}
	return s.unexpected("after array element or object member")
}

// stringLit scans a string starting at its opening quote, validating it
// as encoding/json's scanner does. raw spans the quotes; plain reports
// that its bytes between them are the string's value (no escape, no
// byte ≥ 0x80).
func (s *scanner) stringLit() (raw []byte, plain, ok bool) {
	d, start := s.data, s.off
	plain = true
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			return d[start:s.off], plain, true
		case c == '\\':
			plain = false
			if i+1 >= len(d) {
				s.off = len(d)
				return nil, false, s.unexpected("")
			}
			i++
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(d) || !isHex(d[i]) {
						s.off = i
						return nil, false, s.unexpected("in \\u hexadecimal character escape")
					}
				}
			default:
				s.off = i
				return nil, false, s.unexpected("in string escape code")
			}
		case c < 0x20:
			s.off = i
			return nil, false, s.unexpected("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	s.off = len(d)
	return nil, false, s.unexpected("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// unquote decodes a string literal that is not plain with encoding/json
// itself: escapes, surrogate pairs and invalid UTF-8 are its rules.
func (s *scanner) unquote(raw []byte) (string, bool) {
	var v string
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", s.fail(err.Error())
	}
	return v, true
}

// number scans a number literal by the JSON grammar.
func (s *scanner) number() ([]byte, bool) {
	d, i := s.data, s.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		i = skipDigits(d, i+1)
	default:
		s.off = i
		return nil, s.unexpected("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			s.off = i
			return nil, s.unexpected("after decimal point in numeric literal")
		}
		i = skipDigits(d, i+1)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.off = i
			return nil, s.unexpected("in exponent of numeric literal")
		}
		i = skipDigits(d, i+1)
	}
	lit := d[s.off:i]
	s.off = i
	return lit, true
}

// ---- fields ----

// interned are the strings requests repeat: family, strategy,
// optimizer, model and sense.
var interned = [...]string{
	problem.FamilyMaxCut, problem.FamilyQUBO, problem.FamilyMaxKSAT, problem.FamilyPartition,
	problem.FamilyPortfolio, problem.FamilyColoring, StrategyNaive, StrategyTwoLevel,
	"lbfgsb", "neldermead", "slsqp", "cobyla", "default", "min", "max",
}

// intern returns b as a string, allocating nothing for an interned one.
func intern(b []byte) string {
	for _, s := range interned {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// str decodes a string field; null leaves it alone.
func (s *scanner) str(dst *string) bool {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '"':
		raw, plain, ok := s.stringLit()
		if !ok {
			return false
		}
		if plain {
			*dst = intern(raw[1 : len(raw)-1])
			return true
		}
		v, ok := s.unquote(raw)
		if ok {
			*dst = v
		}
		return ok
	}
	return s.mismatch("a string")
}

// boolean decodes a bool field; null leaves it alone.
func (s *scanner) boolean(dst *bool) bool {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case 't', 'f':
		v := s.data[s.off] == 't'
		if v && !s.literal("true") || !v && !s.literal("false") {
			return false
		}
		*dst = v
		return true
	}
	return s.mismatch("a boolean")
}

// float decodes a float64 field (strconv.ParseFloat, refusing
// overflow); null leaves it alone.
func (s *scanner) float(dst *float64) bool {
	switch c := s.peek(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		start := s.off
		lit, ok := s.number()
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			s.off = start
			return s.fail("number " + string(lit) + " overflows a float64")
		}
		*dst = f
		return true
	}
	return s.mismatch("a float64")
}

// decodeInt decodes an integer field (strconv.ParseInt: no fraction, no
// exponent, no overflow); null leaves it alone.
func decodeInt[T int | int64](s *scanner, dst *T) bool {
	switch c := s.peek(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		start := s.off
		lit, ok := s.number()
		if !ok {
			return false
		}
		n, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil || int64(T(n)) != n {
			s.off = start
			return s.fail("number " + string(lit) + " is not an integer in range")
		}
		*dst = T(n)
		return true
	}
	return s.mismatch("an integer")
}

// decodeSlice decodes an array into *dst over the elements it already
// holds, exactly as encoding/json refills a slice: each element decodes
// over the old one at its index (or a zero one past the old length),
// the slice is cut to the array's length, an empty array is a new empty
// slice and null is nil. A full slice doubles, from 4, where
// encoding/json grows it by half: only the capacity differs, and
// capacity never shows in a later refill (past every length a slice
// had, its elements are zero either way).
func decodeSlice[T any](s *scanner, dst *[]T, elem func(*scanner, *T) bool) bool {
	null, ok := s.open('[', "an array")
	if null || !ok {
		if null && ok {
			*dst = nil
		}
		return ok
	}
	v, i := *dst, 0
	for ; s.more(']', i == 0); i++ {
		if i == len(v) {
			if i == cap(v) {
				v = slices.Grow(v, max(4, i))
			}
			v = v[:i+1]
		}
		if !elem(s, &v[i]) {
			break
		}
	}
	if s.err != nil {
		return false
	}
	if i == 0 {
		v = []T{}
	}
	*dst = v[:i]
	return true
}

func (s *scanner) floatSlice(dst *[]float64) bool {
	return decodeSlice(s, dst, (*scanner).float)
}

func (s *scanner) intSlice(dst *[]int) bool { return decodeSlice(s, dst, decodeInt[int]) }

// pair decodes a [2]int: missing elements are zeroed, extra ones
// skipped (validated, not decoded); null leaves it alone.
func (s *scanner) pair(dst *[2]int) bool {
	null, ok := s.open('[', "an array")
	if null || !ok {
		return ok
	}
	i := 0
	for ; s.more(']', i == 0); i++ {
		if i < len(dst) {
			ok = decodeInt(s, &dst[i])
		} else {
			ok = s.skip()
		}
		if !ok {
			return false
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = 0
	}
	return s.err == nil
}

// skip validates and discards one value of any kind.
func (s *scanner) skip() bool {
	switch c := s.peek(); {
	case c == '"':
		_, _, ok := s.stringLit()
		return ok
	case c == '-' || isDigit(c):
		_, ok := s.number()
		return ok
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '[':
		if _, ok := s.open('[', ""); !ok {
			return false
		}
		for first := true; s.more(']', first); first = false {
			if !s.skip() {
				return false
			}
		}
	case c == '{':
		if _, ok := s.open('{', ""); !ok {
			return false
		}
		for first := true; s.more('}', first); first = false {
			if _, ok := s.key(); !ok || !s.skip() {
				return false
			}
		}
	default:
		return s.unexpected("looking for beginning of value")
	}
	return s.err == nil
}

// key scans an object key and its colon, and returns the key unquoted.
func (s *scanner) key() ([]byte, bool) {
	if s.peek() != '"' {
		return nil, s.unexpected("looking for beginning of object key string")
	}
	s.keyAt = s.off
	raw, plain, ok := s.stringLit()
	if !ok {
		return nil, false
	}
	if s.peek() != ':' {
		return nil, s.unexpected("after object key")
	}
	s.off++
	if plain {
		return raw[1 : len(raw)-1], true
	}
	k, ok := s.unquote(raw)
	return []byte(k), ok
}

// foldKey returns the entry of keys that key matches case-insensitively.
func foldKey(key []byte, keys []string) (string, bool) {
	for _, k := range keys {
		if strings.EqualFold(string(key), k) {
			return k, true
		}
	}
	return "", false
}

// unknownField refuses key at the offset where it began.
func (s *scanner) unknownField(key []byte) bool {
	s.off = s.keyAt
	return s.fail(fmt.Sprintf("unknown field %q", key))
}

// ---- the three structs ----

// decodeObject decodes an object, or null, into *dst over what it
// already holds: field decodes the value of each key in turn.
func decodeObject[T any](s *scanner, dst *T, want string, field func(*scanner, *T, []byte) bool) bool {
	null, ok := s.open('{', want)
	if null || !ok {
		return ok
	}
	for first := true; s.more('}', first); first = false {
		key, ok := s.key()
		if !ok || !field(s, dst, key) {
			return false
		}
	}
	return s.err == nil
}

func (s *scanner) batchRequest(r *BatchRequest) bool {
	return decodeObject(s, r, "a batch request object", (*scanner).batchRequestField)
}

func (s *scanner) solveRequest(r *SolveRequest) bool {
	return decodeObject(s, r, "a solve request object", (*scanner).solveRequestField)
}

func (s *scanner) wireTerm(t *WireTerm) bool {
	return decodeObject(s, t, "a quad term object", (*scanner).wireTermField)
}

func (s *scanner) batchRequestField(r *BatchRequest, key []byte) bool {
	if string(key) == "items" {
		return decodeSlice(s, &r.Items, (*scanner).solveRequest)
	}
	if k, ok := foldKey(key, batchRequestKeys[:]); ok && k != string(key) {
		return s.batchRequestField(r, []byte(k))
	}
	return s.unknownField(key)
}

// solveRequestField decodes the value of key into r.
func (s *scanner) solveRequestField(r *SolveRequest, key []byte) bool {
	switch string(key) {
	case "problem":
		return s.str(&r.Problem)
	case "nodes":
		return decodeInt(s, &r.Nodes)
	case "edges":
		return decodeSlice(s, &r.Edges, (*scanner).pair)
	case "weights":
		return s.floatSlice(&r.Weights)
	case "linear":
		return s.floatSlice(&r.Linear)
	case "quad":
		return decodeSlice(s, &r.Quad, (*scanner).wireTerm)
	case "offset":
		return s.float(&r.Offset)
	case "sense":
		return s.str(&r.Sense)
	case "vars":
		return decodeInt(s, &r.Vars)
	case "clauses":
		return decodeSlice(s, &r.Clauses, (*scanner).intSlice)
	case "clause_weights":
		return s.floatSlice(&r.ClauseWeights)
	case "numbers":
		return s.floatSlice(&r.Numbers)
	case "returns":
		return s.floatSlice(&r.Returns)
	case "covariance":
		return decodeSlice(s, &r.Covariance, (*scanner).floatSlice)
	case "risk_aversion":
		return s.float(&r.RiskAversion)
	case "budget":
		return decodeInt(s, &r.Budget)
	case "penalty":
		return s.float(&r.Penalty)
	case "colors":
		return decodeInt(s, &r.Colors)
	case "depth":
		return decodeInt(s, &r.Depth)
	case "strategy":
		return s.str(&r.Strategy)
	case "optimizer":
		return s.str(&r.Optimizer)
	case "model":
		return s.str(&r.Model)
	case "seed":
		return decodeInt(s, &r.Seed)
	case "timeout_ms":
		return decodeInt(s, &r.TimeoutMs)
	case "wait":
		return s.boolean(&r.Wait)
	}
	if k, ok := foldKey(key, solveRequestKeys[:]); ok && k != string(key) {
		return s.solveRequestField(r, []byte(k))
	}
	return s.unknownField(key)
}

func (s *scanner) wireTermField(t *WireTerm, key []byte) bool {
	switch string(key) {
	case "i":
		return decodeInt(s, &t.I)
	case "j":
		return decodeInt(s, &t.J)
	case "w":
		return s.float(&t.W)
	}
	if k, ok := foldKey(key, wireTermKeys[:]); ok && k != string(key) {
		return s.wireTermField(t, []byte(k))
	}
	return s.unknownField(key)
}
