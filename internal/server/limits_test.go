package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// serveRaw drives one request through the handler, no socket.
func serveRaw(h http.Handler, r *http.Request) (int, string) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var doc struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(w.Body.Bytes(), &doc)
	return w.Code, doc.Error
}

// requireHealthy fails the test unless GET /healthz answers 200.
func requireHealthy(t *testing.T, url, after string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after %s: /healthz status %d", after, resp.StatusCode)
	}
}

// Coefficients each finite, summing to a finite magnitude whose square
// is not, are refused at the HTTP boundary with the bound in the
// message: the adjoint gradient scales as that square, so a solve would
// overflow to ±Inf and NaN and answer 500 while encoding its reply. One
// request per family that can reach it — maxksat by clause weights, a
// QUBO and a portfolio just past the bound — and /healthz stays 200.
func TestHugeCoefficientsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const run = `"depth":2,"strategy":"naive","wait":true}`
	for name, body := range map[string]string{
		"maxksat":   `{"problem":"maxksat","vars":3,"clauses":[[1,2],[-1,3]],"clause_weights":[1e308,1e308],` + run,
		"qubo":      `{"problem":"qubo","nodes":2,"linear":[1e154,0],"quad":[{"i":0,"j":1,"w":1e154}],` + run,
		"portfolio": `{"problem":"portfolio","returns":[1e153,2e153,3e153],"covariance":[[1e153,0,0],[0,1e153,0],[0,0,1e153]],"risk_aversion":0.5,"budget":1,` + run,
	} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil || resp.StatusCode/100 != 4 || !strings.Contains(doc.Error, "exceeds 1.341e+154") {
			t.Errorf("%s: status %d %s (%v), want a 4xx naming the bound 1.341e+154", name, resp.StatusCode, raw, err)
		}
		requireHealthy(t, ts.URL, name)
	}
}

// The body limits hold at the HTTP boundary, and refusing a body never
// takes the server down: an oversize body is a 400 on both endpoints, a
// forged Content-Length (above the limit or at it) buys no allocation of
// its size, a body shorter than its Content-Length is refused, and
// /healthz stays 200 throughout.
func TestBodyLimits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	healthy := func(after string) { t.Helper(); requireHealthy(t, ts.URL, after) }
	healthy("start")

	const tooLarge = "decoding request: http: request body too large"
	for _, tc := range []struct {
		path  string
		limit int
	}{{"/v1/solve", 1 << 20}, {"/v1/solve/batch", 8 << 20}} {
		// One byte over the limit, in a string the decoder would accept.
		body := `{"model":"` + strings.Repeat("m", tc.limit-len(`{"model":""}`)+1) + `"}`
		code, msg := serveRaw(h, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
		if code != http.StatusBadRequest || msg != tooLarge {
			t.Errorf("%s, %d-byte body: status %d %q, want 400 %q", tc.path, len(body), code, msg, tooLarge)
		}
		healthy(tc.path + " over its limit")

		// A short body claiming to be 1 TiB long, and one claiming
		// exactly the limit: neither buys the bytes it declares.
		for _, declared := range []int64{1 << 40, int64(tc.limit)} {
			r := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(`{"depth":0}`))
			r.ContentLength = declared
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			code, msg = serveRaw(h, r)
			runtime.ReadMemStats(&after)
			if code != http.StatusBadRequest || msg == "" {
				t.Errorf("%s, Content-Length %d: status %d %q, want a 400", tc.path, declared, code, msg)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
				t.Errorf("%s, Content-Length %d: %d bytes allocated for an 11-byte body", tc.path, declared, b)
			}
			healthy(fmt.Sprintf("%s with Content-Length %d", tc.path, declared))
		}

		// A complete JSON value, and the connection's write side closed
		// before the declared length arrives.
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		short := `{"depth":1,"numbers":[4,5,6,7],"problem":"partition","strategy":"naive"}`
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			tc.path, len(short)+100, short)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s, short body: %v", tc.path, err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		conn.Close()
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(doc.Error, "decoding request: ") {
			t.Errorf("%s, short body: status %d %q (%v), want a 400 decoding error", tc.path, resp.StatusCode, raw, err)
		}
		healthy(tc.path + " with a short body")
	}
	if n := s.mem.CounterValue("server.jobs.submitted"); n != 0 {
		t.Errorf("%d jobs submitted by refused bodies", n)
	}
}
