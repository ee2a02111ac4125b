package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// memoPair is two servers on one registry and the instant solveFn seam,
// one with the memo and one without, so that their replies to the same
// requests can be compared.
type memoPair struct {
	memo, plain *Server
}

func newMemoPair(tb testing.TB, cfg Config) memoPair {
	tb.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testRegistry(tb)
	}
	p := memoPair{memo: New(cfg), plain: New(cfg)}
	p.plain.memo = nil
	for _, s := range []*Server{p.memo, p.plain} {
		tb.Cleanup(s.Close)
		s.solveFn = func(ctx context.Context, job *Job) (*SolveResult, error) {
			return &SolveResult{Strategy: job.req.Strategy, Problem: job.req.Problem, AR: 1, Fingerprint: job.fp,
				Gamma: []float64{float64(job.req.Depth)}, Beta: []float64{float64(job.req.Seed)}}, nil
		}
	}
	if p.memo.memo == nil {
		tb.Fatal("a server with a cache has no memo")
	}
	return p
}

// serve drives one request through s's handler, no socket.
func serve(s *Server, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// idle waits until s has no job queued or running, so that the next
// request finds every answer cached.
func idle(tb testing.TB, s *Server) {
	tb.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%d jobs still in flight", n)
		}
	}
}

// jobStamps are the fields of a reply that differ between two servers
// answering alike: job ids and times.
var jobStamps = regexp.MustCompile(`"(id|enqueued|started|finished)":"[^"]*"`)

func maskStamps(raw []byte) string { return jobStamps.ReplaceAllString(string(raw), `"$1":"…"`) }

// The batch span scan answers items from the memo only in a body that
// is exactly {"items":[…]} of objects, and only in a batch the handler
// accepts; every other body falls back to the full decode. Either way the reply is the one the
// server without the memo gives, byte for byte once job ids and times
// are masked. Every row's items but e are first sent alone, so the memo
// knows them and the cache holds their answers: a fallback is the
// scan's doing. A draining server refuses every request, memo or not.
func TestMemoBatchFallback(t *testing.T) {
	p := newMemoPair(t, Config{Workers: 1})
	item := func(seed int) string {
		return fmt.Sprintf(`{"problem":"partition","numbers":[4,5,6,7],"depth":1,"strategy":"naive","seed":%d}`, seed)
	}
	a, b, c, d, e := item(1), item(2), item(3), item(4), item(5)
	// maxBatch items, the last maxBatch-2 of them c.
	full := a + `,` + b + strings.Repeat(`,`+c, maxBatch-2)
	// A naive request keeps any model name, and the name is in its key.
	tricky := `{"problem":"partition","numbers":[4,5,6,7],"depth":1,"strategy":"naive","model":"x\"}]{[\\"}`
	// At the nesting limit alone, past it inside a batch's two levels.
	k := maxNesting - 3
	deep := `{"nodes":2,"edges":[[0,1,` + strings.Repeat("[", k) + strings.Repeat("]", k) + `]],"depth":1,"strategy":"naive","wait":true}`
	prime := func(t *testing.T) {
		t.Helper()
		for _, it := range []string{a, b, c, d, tricky, deep} {
			path, body := "/v1/solve/batch", `{"items":[`+it+`]}`
			if it == deep {
				path, body = "/v1/solve", it
			}
			for _, s := range []*Server{p.memo, p.plain} {
				if code, reply := serve(s, path, []byte(body)); code != http.StatusOK {
					t.Fatalf("priming %.80s: status %d: %s", body, code, reply)
				}
			}
		}
	}
	for _, row := range []struct {
		name string
		body string
		memo bool // the repeat is answered from the memo
	}{
		{"exact", `{"items":[` + a + `,` + b + `]}`, true},
		{"whitespace-and-repeat", " \r\n{ \"items\" :\t[ " + a + " ,\n" + b + " , " + a + " ] } \n", true},
		{"max-batch", `{"items":[` + full + `]}`, true},
		{"strings", `{"items":[` + tricky + `,` + a + `]}`, true},
		{"new-item", `{"items":[` + a + `,` + e + `,` + a + `]}`, true},
		{"folded-key", `{"Items":[` + a + `]}`, false},
		{"escaped-key", `{"it\u0065ms":[` + a + `]}`, false},
		{"duplicate-key", `{"items":[` + a + `],"items":[` + b + `]}`, false},
		{"second-key", `{"items":[` + a + `],"depth":1}`, false},
		{"trailing-data", `{"items":[` + a + `]} x`, false},
		{"trailing-value", `{"items":[` + a + `]}{}`, false},
		{"string-closes-early", `{"items":[{"problem":"partition","numbers":[4,5,6,7],"depth":1,"strategy":"naive","optimizer":"o\"}]"}]}`, false},
		{"undecodable-item", `{"items":[` + a + `,{"depth":"2"}]}`, false},
		{"nested-arrays", `{"items":[[` + a + `]]}`, false},
		{"null-item", `{"items":[` + a + `,null]}`, false},
		{"zero-items", `{"items":[]}`, false},
		{"over-max-batch", `{"items":[` + full + `,` + d + `]}`, false},
		{"unclosed", `{"items":[` + a + `,` + b, false},
		{"nesting-limit", `{"items":[` + deep + `]}`, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			prime(t)
			for k := 0; k < 2; k++ {
				before := p.memo.mem.CounterValue("server.memo.hits")
				code, reply := serve(p.memo, "/v1/solve/batch", []byte(row.body))
				wantCode, want := serve(p.plain, "/v1/solve/batch", []byte(row.body))
				if code != wantCode || maskStamps(reply) != maskStamps(want) {
					t.Fatalf("send %d: with the memo %d %s\nwithout %d %s", k+1, code, reply, wantCode, want)
				}
				if hit := p.memo.mem.CounterValue("server.memo.hits") > before; hit != row.memo {
					t.Errorf("send %d (status %d): answered from the memo = %v, want %v", k+1, code, hit, row.memo)
				}
			}
		})
	}

	// Items the memo knows whose answers were evicted are decoded after
	// all and solved again; the repeat finds them cached.
	t.Run("evicted", func(t *testing.T) {
		prime(t)
		p.memo.cache.Purge()
		p.plain.cache.Purge()
		body := []byte(`{"items":[` + a + `,` + b + `,` + a + `]}`)
		for _, want := range []bool{false, true} {
			before := p.memo.mem.CounterValue("server.memo.hits")
			code, reply := serve(p.memo, "/v1/solve/batch", body)
			wantCode, wantReply := serve(p.plain, "/v1/solve/batch", body)
			if code != wantCode || maskStamps(reply) != maskStamps(wantReply) {
				t.Fatalf("with the memo %d %s\nwithout %d %s", code, reply, wantCode, wantReply)
			}
			if hit := p.memo.mem.CounterValue("server.memo.hits") > before; hit != want {
				t.Errorf("answered from the memo = %v, want %v", hit, want)
			}
		}
	})

	t.Run("draining", func(t *testing.T) {
		prime(t)
		for _, s := range []*Server{p.memo, p.plain} {
			if err := s.Drain(drainCtx(t, 10*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		for _, req := range []struct{ path, body string }{
			{"/v1/solve", deep},
			{"/v1/solve/batch", `{"items":[` + a + `,` + b + `]}`},
		} {
			code, reply := serve(p.memo, req.path, []byte(req.body))
			wantCode, want := serve(p.plain, req.path, []byte(req.body))
			if code != wantCode || string(reply) != string(want) || !strings.Contains(string(reply), "server is draining") {
				t.Errorf("%s while draining: with the memo %d %s\nwithout %d %s", req.path, code, reply, wantCode, want)
			}
		}
	})
}

// The memo holds at most memoPerAnswer entries per cache entry however
// many bodies it has seen, and a server without a cache has none.
func TestMemoBound(t *testing.T) {
	const cacheSize = 3
	p := newMemoPair(t, Config{Workers: 1, CacheSize: cacheSize})
	bound := memoPerAnswer * cacheSize
	for seed := 1; seed <= 5*bound; seed++ {
		for _, body := range []string{
			fmt.Sprintf(`{"problem":"partition","numbers":[4,5,6,7],"depth":1,"strategy":"naive","seed":%d,"wait":true}`, seed),
			fmt.Sprintf(`{"items":[{"problem":"partition","numbers":[4,5,6,7],"depth":1,"strategy":"naive","seed":%d}]}`, seed),
		} {
			path := "/v1/solve"
			if strings.HasPrefix(body, `{"items"`) {
				path = "/v1/solve/batch"
			}
			if code, reply := serve(p.memo, path, []byte(body)); code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, code, reply)
			}
			if n := p.memo.memo.Len(); n > bound {
				t.Fatalf("after %d instances the memo holds %d entries, bound %d", seed, n, bound)
			}
		}
	}
	if n := p.memo.memo.Len(); n != bound {
		t.Errorf("memo holds %d entries after %d distinct bodies, want its bound %d", n, 10*bound, bound)
	}
	if s := New(Config{Workers: 1, CacheSize: -1}); s.memo != nil {
		s.Close()
		t.Fatal("a server without a cache has a memo")
	} else {
		s.Close()
	}
}

// Requests answered from the memo race model swaps and each other
// safely: every reply is a finished answer, before or after a swap.
func TestMemoConcurrentSwaps(t *testing.T) {
	reg, pred := testRegistry(t), testPredictor(t)
	p := newMemoPair(t, Config{Workers: 2, CacheSize: 4, Registry: reg})
	var bodies []string
	for seed := 1; seed <= 6; seed++ {
		bodies = append(bodies, fmt.Sprintf(`{"problem":"partition","numbers":[4,5,6,7],"depth":1,"strategy":"naive","seed":%d,"wait":true}`, seed))
	}
	batch := `{"items":[` + strings.Join(bodies, ",") + `]}`
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Register("default", pred)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for k := 0; k < 100; k++ {
				path, body := "/v1/solve", bodies[(c+k)%len(bodies)]
				if k%3 == 0 {
					path, body = "/v1/solve/batch", batch
				}
				code, reply := serve(p.memo, path, []byte(body))
				if code != http.StatusOK || strings.Count(string(reply), `"state":"done"`) == 0 || strings.Contains(string(reply), `"error"`) {
					t.Errorf("%s: status %d: %s", path, code, reply)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	if p.memo.mem.CounterValue("server.memo.hits") == 0 {
		t.Error("no request was answered from the memo")
	}
}

// maskReply is a reply as FuzzMemoReply compares it: job ids and times
// masked, and, on a job not served from the cache, the state, result
// and 200-or-202 status too — a fresh job's reply to wait=false races
// the worker.
func maskReply(code int, raw []byte) string {
	var doc any
	if json.Unmarshal(raw, &doc) != nil {
		return fmt.Sprintf("%d %s", code, raw)
	}
	mask := func(job map[string]any) {
		for _, k := range []string{"id", "enqueued", "started", "finished"} {
			delete(job, k)
		}
		if job["cached"] != true {
			delete(job, "state")
			delete(job, "result")
			if code == http.StatusAccepted {
				code = http.StatusOK
			}
		}
	}
	if top, ok := doc.(map[string]any); ok {
		if _, single := top["state"]; single {
			mask(top)
		}
		if items, ok := top["items"].([]any); ok {
			for _, it := range items {
				if job, ok := it.(map[string]any)["job"].(map[string]any); ok {
					mask(job)
				}
			}
		}
	}
	out, _ := json.Marshal(doc)
	return fmt.Sprintf("%d %s", code, out)
}

// racesClock reports whether raw carries a deadline short enough that
// whether its job finishes depends on the scheduler.
func racesClock(raw []byte) bool {
	var sr SolveRequest
	var br BatchRequest
	reqs := br.Items
	if decodeRequest(raw, &sr) == nil {
		reqs = append(reqs, sr)
	}
	if decodeRequest(raw, &br) == nil {
		reqs = append(reqs, br.Items...)
	}
	for _, r := range reqs {
		if r.TimeoutMs > 0 && r.TimeoutMs < time.Second.Milliseconds() {
			return true
		}
	}
	return false
}

// decodeRows are bodies at the edges of encoding/json's rules; the
// comment says what each group pins. FuzzMemoReply seeds with them, so
// every plain go test sends each through both server paths.
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

// FuzzMemoReply holds the byte path to the decode path: a server with
// the memo and one without get the same body twice, as a single and as
// a batch, and give the same status and reply each time (maskReply).
// Both servers live across inputs, so bytes seen in an earlier input
// are answered from the memo, and their small caches keep evicting.
func FuzzMemoReply(f *testing.F) {
	p := newMemoPair(f, Config{Workers: 1, MaxNodes: 12, CacheSize: 16, QueueDepth: 256, MaxInflightCost: 1 << 50})
	seeds, err := filepath.Glob("testdata/fuzz/FuzzDecodeRequest/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzDecodeRequest seeds (%v)", err)
	}
	// A seed that races the clock would only be skipped below, so it
	// is not added.
	add := func(raw []byte) {
		if !racesClock(raw) {
			f.Add(raw)
		}
	}
	for _, path := range seeds {
		add(readSeed(f, path))
	}
	for _, body := range hotBodies(f) {
		add(body)
	}
	for _, row := range decodeRows {
		add([]byte(row))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if racesClock(raw) {
			t.Skip("a deadline under a second races the solve")
		}
		for _, path := range []string{"/v1/solve", "/v1/solve/batch"} {
			for k := 0; k < 2; k++ {
				code, reply := serve(p.memo, path, raw)
				wantCode, want := serve(p.plain, path, raw)
				idle(t, p.memo)
				idle(t, p.plain)
				if got, want := maskReply(code, reply), maskReply(wantCode, want); got != want {
					t.Fatalf("%s, send %d:\nwith the memo %s\nwithout      %s", path, k+1, got, want)
				}
			}
		}
	})
}
