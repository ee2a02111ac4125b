package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qaoaml/internal/server"
)

// The driver against a real in-process qaoad: every item ends done,
// and followed jobs complete over their event streams.
func TestOfferAgainstServer(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pool, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	got := offer(&http.Client{}, ts.URL, pool, 40, 500*time.Millisecond)
	t.Log(got)
	if got.done == 0 || got.failed != 0 || got.followed == 0 {
		t.Fatalf("%v: want done > 0, failed 0, sse_followed > 0", got)
	}
	if err := got.check(); err != nil {
		t.Fatal(err)
	}
}

// check fails on each of the smoke's four violations.
func TestCheckRejects(t *testing.T) {
	ok := tally{items: 10, done: 8, rejected: 2, followed: 2}
	if err := ok.check(); err != nil {
		t.Fatalf("passing tally refused: %v", err)
	}
	for name, c := range map[string]struct {
		t    tally
		want string
	}{
		"failed":     {tally{items: 10, done: 7, rejected: 2, failed: 1, followed: 2}, "failed"},
		"missing":    {tally{items: 10, done: 7, rejected: 2, followed: 2}, "missing"},
		"none done":  {tally{items: 3, rejected: 3}, "no job completed"},
		"no streams": {tally{items: 10, done: 10}, "SSE"},
	} {
		err := c.t.check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: check(%v) = %v, want an error mentioning %q", name, c.t, err, c.want)
		}
	}
}
