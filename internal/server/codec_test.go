package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// oracleDecode is what decodeBody did with encoding/json, and what the
// scanner must agree with: unknown keys refused, one value per body.
func oracleDecode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// checkDecode decodes raw as both request bodies with the scanner and
// with the oracle, and fails unless both accept with equal values or
// both refuse. It returns what the scanner accepted.
func checkDecode(tb testing.TB, raw []byte) (*SolveRequest, *BatchRequest) {
	tb.Helper()
	var want, got SolveRequest
	werr, gerr := oracleDecode(raw, &want), decodeRequest(raw, &got)
	if (werr == nil) != (gerr == nil) || werr == nil && !reflect.DeepEqual(got, want) {
		tb.Fatalf("SolveRequest from %q:\nscanner  %+v (%v)\nencoding/json %+v (%v)", raw, got, gerr, want, werr)
	}
	var wantB, gotB BatchRequest
	werrB, gerrB := oracleDecode(raw, &wantB), decodeRequest(raw, &gotB)
	if (werrB == nil) != (gerrB == nil) || werrB == nil && !reflect.DeepEqual(gotB, wantB) {
		tb.Fatalf("BatchRequest from %q:\nscanner  %+v (%v)\nencoding/json %+v (%v)", raw, gotB, gerrB, wantB, werrB)
	}
	var sr *SolveRequest
	var br *BatchRequest
	if gerr == nil {
		sr = &got
	}
	if gerrB == nil {
		br = &gotB
	}
	return sr, br
}

// decodeRows are bodies at the edges of encoding/json's rules, each
// decoded by both and compared; the comment says what it pins.
var decodeRows = []string{
	// Keys: exact, folded (ASCII and Unicode: U+017F folds to s, U+212A
	// to k), escaped, unknown, unknown inside a quad term.
	`{"depth":2,"problem":"qubo"}`,
	`{"DEPTH":2,"Problem":"qubo","Wait":true,"TIMEOUT_MS":5,"Clause_Weights":[1]}`,
	"{\"\u017feed\":3}",
	"{\"\u212aeep\":3}",
	`{"d\u0065pth":2,"\u0070roblem":"partition"}`,
	`{"nodez":1}`,
	`{"quad":[{"i":1,"j":2,"w":3,"k":4}]}`,
	`{"quad":[{"I":1,"J":2,"W":3}]}`,
	// Repeated keys: the last scalar wins, slices refill in place.
	`{"depth":1,"depth":2}`,
	`{"clauses":[[1,2],[3,4]],"clauses":[[5]],"clauses":[[6],[7]]}`,
	`{"edges":[[1,2],[3,4]],"edges":[[5]],"edges":[[6],[7]]}`,
	`{"quad":[{"i":1,"j":2,"w":3}],"quad":[{"w":5}]}`,
	`{"numbers":[1,2,3],"numbers":[],"numbers":[4]}`,
	`{"covariance":[[1,2],[3]],"covariance":[[4],[5,6,7]]}`,
	// null: slices go nil, everything else stays.
	`{"problem":null,"depth":null,"wait":null,"offset":null,"seed":null}`,
	`{"depth":3,"depth":null}`,
	`{"edges":null,"weights":null,"quad":null,"clauses":null,"covariance":null}`,
	`{"clauses":[[1,2],null,[]],"edges":[null,[1,null]],"quad":[null],"covariance":[null,[null,1]]}`,
	`{"weights":[1,2],"weights":null}`,
	`{"weights":[]}`,
	// [2]int: zero-filled when short, extras skipped unparsed.
	`{"edges":[[1],[],[2,3,4,"x",{"a":[1,{}]},1e999,true,null]]}`,
	`{"edges":[[1,2,3,]]}`,
	`{"edges":[[1,2,{"a" 1}]]}`,
	`{"edges":[[1,2,"\u00zz"]]}`, `{"edges":[[1,2,"\q"]]}`, `{"edges":[[1,2,"\u00e9\n"]]}`,
	// Integers refuse fractions, exponents and overflow; floats overflow.
	`{"depth":1.0}`,
	`{"depth":1e2}`,
	`{"depth":-0}`,
	`{"seed":9223372036854775807}`,
	`{"seed":9223372036854775808}`,
	`{"seed":-9223372036854775808}`,
	`{"offset":1e400}`,
	`{"offset":-1e400}`,
	`{"offset":1e-400}`,
	`{"offset":-0.0}`,
	`{"offset":1E+2,"penalty":2.5e-3,"risk_aversion":0.000001}`,
	// Number grammar.
	`{"depth":01}`, `{"depth":-}`, `{"offset":.5}`, `{"offset":1.}`, `{"offset":1e}`,
	`{"offset":+1}`, `{"offset":1e+}`, `{"offset":-01.5}`, `{"depth":1x}`,
	// Kinds that do not fit the field.
	`{"depth":"2"}`, `{"wait":1}`, `{"wait":"true"}`, `{"problem":2}`, `{"problem":[]}`,
	`{"edges":{}}`, `{"edges":[1]}`, `{"quad":[1]}`, `{"quad":[[1]]}`, `{"clauses":[["1"]]}`,
	`{"items":[1]}`, `{"items":{}}`, `{"items":[[]]}`,
	// Strings: escapes, surrogates, invalid UTF-8, control characters.
	`{"problem":"max\u0063ut","model":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"model":"\ud83d\ude00 \ud800 \udc00x \u00e9"}`,
	"{\"model\":\"a\xffb\xc3\"}",
	"{\"model\":\"tab\there\"}",
	"{\"model\":\"unit\x1fseparator\"}", "{\"model\":\"nul\x00\"}", "{\"model\":\"del\x7f\"}",
	`{"model":"\x"}`,
	`{"model":"\u12"}`,
	`{"model":"unterminated`,
	"{\"model\":\"h\u00e9llo <&> \u2028\"}",
	`{"sense":"max","optimizer":"cobyla","strategy":"naive","model":"m1"}`,
	// Literals.
	`{"wait":true}`, `{"wait":false}`, `{"wait":tru}`, `{"wait":nul}`, `{"wait":truex}`,
	// Top level: null, other kinds, nothing, whitespace, trailing data.
	`null`, " \t\r\n null \n", `[]`, `""`, `1`, `true`, `{}`, ``, ` `, "\ufeff{}",
	`{"depth":1}{}`, `{"depth":1} x`, `{"depth":1}]`, `{"depth":1}` + "\n\t ", `{"depth":1}null`,
	`{`, `{"depth"`, `{"depth":`, `{"depth":1`, `{"depth":1,}`, `{,"depth":1}`, `{"depth" 1}`,
	`{depth:1}`, `{"items":[{"depth":1},]}`, `{"items":[,{"depth":1}]}`,
	// Batches: null items, folded key, refilled items.
	`{"items":[{"depth":1},null,{}]}`,
	`{"ITEMS":[]}`,
	`{"items":null}`,
	`{"items":[{"depth":1,"numbers":[1,2]}],"items":[{"seed":5},{"depth":3}]}`,
	`{"items":[{"depth":1}],"extra":1}`,
}

// nested returns a body whose first edge carries an extra element
// nested to depth levels in all.
func nested(depth int) string {
	k := depth - 3 // the object, edges and the pair itself
	return `{"edges":[[1,2,` + strings.Repeat("[", k) + strings.Repeat("]", k) + `]]}`
}

// hotBodies are the bodies of the benchmark's request mixes as this
// package can build them: every family at the hot mix's size and the
// cold mix's sizes, alone and as batches.
func hotBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var bodies [][]byte
	families := append(hotFamilies, problem.FamilyColoring)
	for _, n := range []int{4, 8, 10, 12, 14} {
		for _, family := range families {
			var items []SolveRequest
			for seed := int64(1); seed <= 8; seed++ {
				spec, err := problem.RandomSpec(family, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					tb.Fatal(err)
				}
				w, err := problem.WireOf(spec)
				if err != nil {
					tb.Fatal(err)
				}
				req := SolveRequest{Problem: family, Wire: w, Depth: 2, Strategy: StrategyTwoLevel, Wait: true, Seed: seed}
				body, err := json.Marshal(req)
				if err != nil {
					tb.Fatal(err)
				}
				bodies = append(bodies, body)
				items = append(items, req)
			}
			body, err := json.Marshal(BatchRequest{Items: items})
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// The scanner accepts what encoding/json accepts and decodes it to the
// same value: the edge rows, nesting at encoding/json's limit, the
// request goldens, every family's bodies, and the checked-in fuzz seeds.
func TestDecodeRequestOracle(t *testing.T) {
	bodies := [][]byte{[]byte(nested(maxNesting)), []byte(nested(maxNesting + 1))}
	for _, row := range decodeRows {
		bodies = append(bodies, []byte(row))
	}
	for _, golden := range wireGolden {
		bodies = append(bodies, []byte(golden))
	}
	bodies = append(bodies, hotBodies(t)...)
	seeds, err := filepath.Glob("testdata/fuzz/FuzzDecodeRequest/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no fuzz seeds (%v)", err)
	}
	for _, path := range seeds {
		bodies = append(bodies, readSeed(t, path))
	}
	accepted := 0
	for _, body := range bodies {
		if sr, br := checkDecode(t, body); sr != nil || br != nil {
			accepted++
		}
	}
	t.Logf("%d bodies, %d accepted by one request type or both", len(bodies), accepted)

	// Refusals name their offset; the two fixed messages stay verbatim.
	var req SolveRequest
	if err := decodeRequest([]byte(`{"depth":1.5}`), &req); err == nil || !strings.HasSuffix(err.Error(), "at offset 9") {
		t.Errorf("fractional depth: %v, want the offset of the number", err)
	}
	if err := decodeRequest([]byte(`{"depth":1, "nodez":1}`), &req); err == nil || err.Error() != `unknown field "nodez" at offset 12` {
		t.Errorf("unknown key: %v, want its offset", err)
	}
	if err := decodeRequest([]byte(`{"depth":1} {}`), &req); err == nil || err.Error() != "trailing data after the JSON value" {
		t.Errorf("trailing value: %v", err)
	}
}

// readSeed returns the body in a go-fuzz corpus file.
func readSeed(tb testing.TB, path string) []byte {
	tb.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.SplitN(string(blob), "\n", 3)
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		tb.Fatalf("%s: not a []byte corpus entry", path)
	}
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(body)
}

// FuzzDecodeRequest holds the scanner to encoding/json on any bytes, as
// both request bodies: both accept with equal values, or both refuse. An
// accepted request then goes through normalize, which must refuse or
// resolve it without panicking.
func FuzzDecodeRequest(f *testing.F) {
	s := New(Config{Workers: 1, MaxNodes: 12})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, raw []byte) {
		sr, br := checkDecode(t, raw)
		if sr != nil {
			s.normalize(sr)
		}
		if br != nil {
			for i := range br.Items {
				s.normalize(&br.Items[i])
			}
		}
	})
}

// ---- encode ----

// trickyFloats sit where encoding/json's float format changes or is
// easiest to get wrong: the 1e-6 and 1e21 switches and their
// neighbours, 1e20 (which stays plain), subnormals, ±0 and the extremes.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 0.5,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.99e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 5e20, 1e22,
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64, -math.MaxFloat64,
	1e-100, 1e100, 1e-10, 1.5e300, -2.5e-8,
}

// trickyStrings need encoding/json's escaping: HTML characters, quotes
// and control bytes, U+2028/U+2029, invalid and truncated UTF-8.
var trickyStrings = []string{
	"", "job-00000001", "done", "<script>alert(1)</script>", "a&b", "\"quoted\\\"",
	"\u2028\u2029", "x\u2028y", "a\xffb", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "h\u00e9llo", "\U0001F600", "\ufffd", "0110", "e3b0c44298fc1c149afbf4c8996fb924",
}

// filler sets every field of a value by reflection, so a field the
// appender does not write shows up as a difference, with the values
// above mixed among random ones. edgy makes fields zero or nil part of
// the time, which exercises omitempty and null, and draws the odd time
// encoding/json refuses.
type filler struct {
	rng  *rand.Rand
	edgy bool
}

var timeType = reflect.TypeOf(time.Time{})

func (f *filler) fill(v reflect.Value) {
	if f.edgy && f.rng.Intn(4) == 0 {
		v.SetZero()
		return
	}
	switch v.Kind() {
	case reflect.String:
		if f.rng.Intn(3) == 0 {
			b := make([]byte, f.rng.Intn(12))
			f.rng.Read(b)
			v.SetString(string(b))
		} else {
			v.SetString(trickyStrings[f.rng.Intn(len(trickyStrings))])
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(f.rng.Int63n(2e12) - 1e12)
	case reflect.Float64:
		x := trickyFloats[f.rng.Intn(len(trickyFloats))]
		if f.rng.Intn(2) == 0 {
			x = math.Float64frombits(f.rng.Uint64())
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = f.rng.NormFloat64()
			}
		}
		v.SetFloat(x)
	case reflect.Slice:
		n := 1 + f.rng.Intn(4)
		if f.edgy {
			n = f.rng.Intn(4) // n == 0 is an empty, non-nil slice
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(f.time()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		panic("filler: no rule for " + v.Type().String())
	}
}

// time draws a time with nanoseconds (trailing zeros included), in UTC
// or at a zone offset, and when edgy, rarely a year or an offset (24 h
// or more) RFC 3339 cannot hold.
func (f *filler) time() time.Time {
	year := 1970 + f.rng.Intn(100)
	switch f.rng.Intn(20) {
	case 0:
		year = f.rng.Intn(10000)
	case 1:
		if f.edgy {
			year = []int{-1, 10000, 0, 9999}[f.rng.Intn(4)]
		}
	}
	nsec := f.rng.Intn(1e9)
	if f.rng.Intn(3) == 0 {
		nsec = nsec / 1000 * 1000
	}
	loc := time.UTC
	if f.rng.Intn(2) == 0 {
		span := 23*3600 + 59*60
		if f.edgy {
			span = 26 * 3600
		}
		loc = time.FixedZone("", (f.rng.Intn(2*span+1)-span)/60*60)
	}
	return time.Date(year, time.Month(1+f.rng.Intn(12)), 1+f.rng.Intn(28), f.rng.Intn(24), f.rng.Intn(60), f.rng.Intn(60), nsec, loc)
}

// checkEncode fails unless appendJSON writes exactly what
// json.NewEncoder(w).Encode(v) writes, or both refuse v.
func checkEncode(tb testing.TB, v any) {
	tb.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(v)
	got, gerr := appendJSON(nil, v)
	if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got, want.Bytes()) {
		tb.Fatalf("%+v:\nappender      %s (%v)\nencoding/json %s (%v)", v, got, gerr, want.Bytes(), werr)
	}
}

// Randomized job views and batch responses encode to encoding/json's
// bytes.
func TestEncodeViewOracle(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(34)), edgy: true}
	for i := 0; i < 50000; i++ {
		if i%5 == 0 {
			var r BatchResponse
			f.fill(reflect.ValueOf(&r).Elem())
			checkEncode(t, r)
			continue
		}
		var v JobView
		f.fill(reflect.ValueOf(&v).Elem())
		checkEncode(t, v)
	}
	for _, x := range trickyFloats {
		checkEncode(t, JobView{Result: &SolveResult{AR: x, Gamma: []float64{-x}, Level1AR: x, Objective: -x}})
	}
	for _, s := range trickyStrings {
		checkEncode(t, BatchResponse{Items: []BatchItemResult{{Error: s, Job: &JobView{ID: s, Error: s}}}})
	}
}

// jsonTags returns the JSON keys of t's fields, embedded structs
// flattened.
func jsonTags(t reflect.Type) []string {
	var tags []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous && f.Tag.Get("json") == "" {
			tags = append(tags, jsonTags(f.Type)...)
			continue
		}
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != "-" {
			tags = append(tags, name)
		}
	}
	return tags
}

// A JSON tag the codecs do not handle fails here, before a request
// field is refused as unknown or a view field silently dropped: the key
// tables are the tags, a request with every field set decodes to
// itself, and a view with every field set encodes every key.
func TestCodecCoversTags(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(SolveRequest{}), solveRequestKeys[:]},
		{reflect.TypeOf(WireTerm{}), wireTermKeys[:]},
		{reflect.TypeOf(BatchRequest{}), batchRequestKeys[:]},
	} {
		if tags := jsonTags(tc.typ); !reflect.DeepEqual(tags, tc.keys) {
			t.Errorf("%v: tags %q, decoder keys %q", tc.typ, tags, tc.keys)
		}
	}
	f := filler{rng: rand.New(rand.NewSource(1))}
	var req BatchRequest
	f.fill(reflect.ValueOf(&req).Elem())
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range append(solveRequestKeys[:], wireTermKeys[:]...) {
		if !bytes.Contains(body, []byte(`"`+key+`":`)) {
			t.Fatalf("filled request %s lacks %q", body, key)
		}
	}
	if _, br := checkDecode(t, body); br == nil {
		t.Errorf("a request with every field set was refused: %s", body)
	}
	var reply BatchResponse
	f.fill(reflect.ValueOf(&reply).Elem())
	checkEncode(t, reply)
	out, _ := appendJSON(nil, reply)
	for _, typ := range []reflect.Type{reflect.TypeOf(JobView{}), reflect.TypeOf(SolveResult{}), reflect.TypeOf(BatchItemResult{})} {
		for _, tag := range jsonTags(typ) {
			if !bytes.Contains(out, []byte(`"`+tag+`":`)) {
				t.Errorf("%v: key %q not written in %s", typ, tag, out)
			}
		}
	}
}

// A reply that cannot be encoded is a 500 naming the reason, not its
// status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{JobView{ID: "job-1", State: StateDone, Result: &SolveResult{AR: math.NaN()}}, "json: unsupported value: NaN"},
		{BatchResponse{Items: []BatchItemResult{{Code: 200, Job: &JobView{Result: &SolveResult{Gamma: []float64{0.5, math.Inf(-1)}}}}}}, "json: unsupported value: -Inf"},
		{JobView{Enqueued: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}, "json: error calling MarshalJSON for type time.Time: Time.MarshalJSON: year outside of range [0,9999]"},
	} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, tc.v)
		want := `{"error":"encoding response: ` + tc.want + `"}` + "\n"
		if w.Code != http.StatusInternalServerError || w.Body.String() != want {
			t.Errorf("%+v: status %d body %q, want 500 %q", tc.v, w.Code, w.Body, want)
		}
	}
}

// ---- per-layer benchmarks ----

// benchCodecs times each side's op in turn in every iteration and
// reports ns and allocations per request item for each.
func benchCodecs(b *testing.B, items int, sides map[string]func()) {
	const reps = 8
	took, allocs := map[string]time.Duration{}, map[string]float64{}
	for name, op := range sides {
		allocs[name] = testing.AllocsPerRun(20, op)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, op := range sides {
			start := time.Now()
			for r := 0; r < reps; r++ {
				op()
			}
			took[name] += time.Since(start)
		}
	}
	for name, d := range took {
		b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*reps*items), name+"-ns/item")
		b.ReportMetric(allocs[name]/float64(items), name+"-allocs/item")
	}
}

// hotBatch returns the body of a 16-item batch of hot-path requests.
func hotBatch(b *testing.B, family string) []byte {
	items := make([]SolveRequest, 16)
	for i := range items {
		items[i] = hotRequest(b, family, int64(100+i))
	}
	body, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeRequest decodes a 16-item hot batch body per family
// with encoding/json (DisallowUnknownFields and the trailing check, as
// decodeBody did) and with the scanner.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, family := range hotFamilies {
		b.Run(family, func(b *testing.B) {
			body := hotBatch(b, family)
			benchCodecs(b, 16, map[string]func(){
				"json": func() {
					var req BatchRequest
					if err := oracleDecode(body, &req); err != nil {
						b.Fatal(err)
					}
				},
				"codec": func() {
					var req BatchRequest
					if err := decodeRequest(body, &req); err != nil {
						b.Fatal(err)
					}
				},
			})
		})
	}
}

// BenchmarkEncodeView encodes a 16-item hot batch's cached reply per
// family with encoding/json and with the appender, into a reused buffer.
func BenchmarkEncodeView(b *testing.B) {
	for _, family := range hotFamilies {
		b.Run(family, func(b *testing.B) {
			s, _ := warmHot(b, family, 16)
			reply := post(b, s.Handler(), "/v1/solve/batch", hotBatch(b, family))
			var resp BatchResponse
			if err := json.Unmarshal(reply.Body.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			out := make([]byte, 0, 64<<10)
			benchCodecs(b, len(resp.Items), map[string]func(){
				"json": func() {
					buf.Reset()
					if err := json.NewEncoder(&buf).Encode(resp); err != nil {
						b.Fatal(err)
					}
				},
				"codec": func() {
					var err error
					if out, err = appendJSON(out[:0], resp); err != nil {
						b.Fatal(err)
					}
				},
			})
		})
	}
}
