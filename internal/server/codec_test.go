package server

import (
	"bytes"
	"encoding/json"
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

// decodeAs decodes body as each request type.
func decodeAs(body []byte) (solveErr, batchErr error) {
	return decodeRequest(body, &SolveRequest{}), decodeRequest(body, &BatchRequest{})
}

// The decoder takes what the server has always taken and refuses with
// the stated messages: nesting at encoding/json's limit but not past it,
// the request goldens, every family's bodies and every checked-in fuzz
// seed but the trailing-data ones. A syntax or type error and an early
// end name their offset; an unknown key is named; trailing data is one
// fixed message.
func TestDecodeRequestOracle(t *testing.T) {
	if err := decodeRequest([]byte(nested(maxNesting)), &SolveRequest{}); err != nil {
		t.Errorf("nesting at the limit: %v", err)
	}
	if err := decodeRequest([]byte(nested(maxNesting+1)), &SolveRequest{}); err == nil {
		t.Error("nesting past the limit accepted")
	}
	var bodies [][]byte
	for _, golden := range wireGolden {
		bodies = append(bodies, []byte(golden))
	}
	bodies = append(bodies, hotBodies(t)...)
	seeds, err := filepath.Glob("testdata/fuzz/FuzzDecodeRequest/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no fuzz seeds (%v)", err)
	}
	for _, path := range seeds {
		body := readSeed(t, path)
		if !strings.HasPrefix(filepath.Base(path), "trailing-") {
			bodies = append(bodies, body)
		} else if serr, berr := decodeAs(body); serr != errTrailing && berr != errTrailing {
			t.Errorf("%s: %v / %v, want trailing data refused", path, serr, berr)
		}
	}
	for _, body := range bodies {
		if serr, berr := decodeAs(body); serr != nil && berr != nil {
			t.Errorf("%.80s: refused (%v / %v)", body, serr, berr)
		}
	}

	var req SolveRequest
	if err := decodeRequest([]byte(`{"depth":1,}`), &req); err == nil || !strings.HasSuffix(err.Error(), "at offset 12") {
		t.Errorf("syntax error: %v, want the offset of the bad byte", err)
	}
	if err := decodeRequest([]byte(`{"depth":1.5}`), &req); err == nil || !strings.HasSuffix(err.Error(), "at offset 12") {
		t.Errorf("fractional depth: %v, want the offset of the number's end", err)
	}
	if err := decodeRequest([]byte(`{"depth":1, "nodez":1}`), &req); err == nil || err.Error() != `json: unknown field "nodez"` {
		t.Errorf("unknown key: %v, want it named", err)
	}
	if err := decodeRequest([]byte(`{"depth":1} {}`), &req); err == nil || err.Error() != "trailing data after the JSON value" {
		t.Errorf("trailing value: %v", err)
	}
	if err := decodeRequest([]byte(`{"depth":1`), &req); err == nil || err.Error() != "unexpected end of JSON input at offset 10" {
		t.Errorf("truncated body: %v, want the offset of its end", err)
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

// FuzzDecodeRequest holds the memo's batch scan to the decoder on any
// bytes: when itemSpans splits a body, the body decodes whole exactly
// when every span decodes alone, and to the same items. decodeBatch
// relies on it when it decodes a batch item by item. FuzzMemoReply's
// checked-in batches seed it too.
func FuzzDecodeRequest(f *testing.F) {
	seeds, err := filepath.Glob("testdata/fuzz/FuzzMemoReply/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzMemoReply seeds (%v)", err)
	}
	for _, path := range seeds {
		f.Add(readSeed(f, path))
	}
	// One item whose escaped quotes a scan blind to escapes splits in two.
	f.Add([]byte(`{"items":[{"model":"\"},{\""}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		spans, ok := itemSpans(raw)
		if !ok {
			return
		}
		var whole BatchRequest
		werr := decodeRequest(raw, &whole)
		items := make([]SolveRequest, len(spans))
		for i, sp := range spans {
			if err := decodeRequest(raw[sp[0]:sp[1]], &items[i]); err != nil {
				if werr == nil {
					t.Fatalf("item %d refused (%v), but the whole body decodes", i, err)
				}
				return
			}
		}
		if werr != nil {
			t.Fatalf("every item decodes, but the whole body is refused: %v", werr)
		}
		if !reflect.DeepEqual(whole.Items, items) {
			t.Fatalf("whole body %+v, items alone %+v", whole.Items, items)
		}
	})
}

// ---- tags ----

// trickyFloats sit where JSON's float format changes or is easiest to
// get wrong: the 1e-6 and 1e21 switches and their neighbours, 1e20
// (which stays plain), subnormals, ±0 and the extremes.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 0.5,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.99e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 5e20, 1e22,
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64, -math.MaxFloat64,
	1e-100, 1e100, 1e-10, 1.5e300, -2.5e-8,
}

// trickyStrings need JSON escaping: HTML characters, quotes and control
// bytes, U+2028/U+2029, invalid and truncated UTF-8.
var trickyStrings = []string{
	"", "job-00000001", "done", "<script>alert(1)</script>", "a&b", "\"quoted\\\"",
	"\u2028\u2029", "x\u2028y", "a\xffb", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "h\u00e9llo", "\U0001F600", "\ufffd", "0110", "e3b0c44298fc1c149afbf4c8996fb924",
}

// filler sets every field of a value by reflection, so a field the
// decoder does not take shows up as a refusal, with the values above
// mixed among random ones.
type filler struct{ rng *rand.Rand }

func (f *filler) fill(v reflect.Value) {
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
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		panic("filler: no rule for " + v.Type().String())
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

// A JSON tag the decoder does not handle fails here: a request with
// every field set decodes.
func TestCodecCoversTags(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(1))}
	var req BatchRequest
	f.fill(reflect.ValueOf(&req).Elem())
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range append(jsonTags(reflect.TypeOf(SolveRequest{})), jsonTags(reflect.TypeOf(WireTerm{}))...) {
		if !bytes.Contains(body, []byte(`"`+key+`":`)) {
			t.Fatalf("filled request %s lacks %q", body, key)
		}
	}
	if err := decodeRequest(body, &BatchRequest{}); err != nil {
		t.Errorf("a request with every field set was refused (%v): %s", err, body)
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

// BenchmarkDecodeRequest decodes a 16-item hot batch body per family,
// as a memo-less server (the coordinator) decodes every request.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, family := range hotFamilies {
		b.Run(family, func(b *testing.B) {
			body := hotBatch(b, family)
			benchCodecs(b, 16, map[string]func(){
				"json": func() {
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
// family with encoding/json into a reused buffer, as writeJSON does.
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
			benchCodecs(b, len(resp.Items), map[string]func(){
				"json": func() {
					buf.Reset()
					if err := json.NewEncoder(&buf).Encode(resp); err != nil {
						b.Fatal(err)
					}
				},
			})
		})
	}
}
