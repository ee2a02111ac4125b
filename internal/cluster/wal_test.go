package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qaoaml/internal/problem"
	"qaoaml/internal/server"
)

func walReq(seed int64) server.SolveRequest {
	return server.SolveRequest{
		Wire:  problem.Wire{Nodes: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}},
		Depth: 2, Strategy: "naive", Seed: seed,
	}
}

func walRes(ar float64) *server.SolveResult {
	return &server.SolveResult{
		Strategy: "naive", AR: ar,
		Gamma: []float64{0.1, 0.2}, Beta: []float64{0.3, 0.4},
		NFev: 42, Objective: 5, Assignment: "010101", Fingerprint: "fp",
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, rec, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 || len(rec.Completed) != 0 || rec.Torn {
		t.Fatalf("fresh wal recovered state: %+v", rec)
	}
	reqA, reqB := walReq(1), walReq(2)
	resA := walRes(0.9)
	if err := w.Accepted("keyA", "fpA", reqA); err != nil {
		t.Fatal(err)
	}
	if err := w.Accepted("keyB", "fpB", reqB); err != nil {
		t.Fatal(err)
	}
	if err := w.Completed("keyA", resA); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(rec.Completed) != 1 || rec.Completed[0].Key != "keyA" {
		t.Fatalf("completed = %+v", rec.Completed)
	}
	if !reflect.DeepEqual(rec.Completed[0].Result, resA) {
		t.Fatalf("replayed result differs:\n got %+v\nwant %+v", rec.Completed[0].Result, resA)
	}
	if len(rec.Incomplete) != 1 || rec.Incomplete[0].Key != "keyB" || rec.Incomplete[0].Fingerprint != "fpB" {
		t.Fatalf("incomplete = %+v", rec.Incomplete)
	}
	if !reflect.DeepEqual(rec.Incomplete[0].Req, reqB) {
		t.Fatalf("replayed request differs:\n got %+v\nwant %+v", rec.Incomplete[0].Req, reqB)
	}
}

// A job settled without a result (failed or cancelled: Completed with
// nil) must be neither re-enqueued nor cached on recovery.
func TestWALSettledJobNotRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Accepted("key", "fp", walReq(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Completed("key", nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 || len(rec.Completed) != 0 {
		t.Fatalf("settled job leaked into recovery: %+v", rec)
	}
}

// A crash mid-append leaves a torn tail: a partial frame, or a frame
// whose payload bytes were only partly flushed (CRC mismatch). Recovery
// must keep every intact record and drop only the tail.
func TestWALTornTail(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated-frame": func(b []byte) []byte {
			return b[:len(b)-3] // cut into the final record's payload
		},
		"corrupt-crc": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff // flip a payload byte; CRC now mismatches
			return b
		},
		"garbage-appended": func(b []byte) []byte {
			return append(b, 0xde, 0xad, 0xbe) // partial header after the last record
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.wal")
			w, _, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Accepted("keyA", "fpA", walReq(1)); err != nil {
				t.Fatal(err)
			}
			if err := w.Completed("keyA", walRes(0.8)); err != nil {
				t.Fatal(err)
			}
			if err := w.Accepted("keyB", "fpB", walReq(2)); err != nil {
				t.Fatal(err)
			}
			w.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			w2, rec, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if !rec.Torn {
				t.Fatal("torn tail not reported")
			}
			if len(rec.Completed) != 1 || rec.Completed[0].Key != "keyA" {
				t.Fatalf("intact records lost: completed = %+v", rec.Completed)
			}
			// keyB's accepted record was the tail; depending on the mangle it
			// is gone (truncated/corrupt) — what matters is keyA survived and
			// the reopened log accepts appends.
			if err := w2.Accepted("keyC", "fpC", walReq(3)); err != nil {
				t.Fatalf("append after torn recovery: %v", err)
			}
		})
	}
}

// Compaction on open drops settled and superseded records: the log
// holds only live state, so it cannot grow without bound across
// restart cycles, and a crash during compaction leaves a valid log
// (tmp + rename).
func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// 50 jobs accepted and settled without results: all dead weight.
	for i := 0; i < 50; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := w.Accepted(key, "fp", walReq(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Completed(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One live result and one incomplete job: the only live state.
	if err := w.Accepted("live-done", "fp1", walReq(100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Completed("live-done", walRes(0.7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Accepted("live-open", "fp2", walReq(101)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	before, _ := os.Stat(path)

	w2, rec, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if len(rec.Completed) != 1 || len(rec.Incomplete) != 1 {
		t.Fatalf("recovery = %d completed, %d incomplete; want 1, 1", len(rec.Completed), len(rec.Incomplete))
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}

	// The compacted log replays to the same state.
	w3, rec2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w3.Close()
	if !reflect.DeepEqual(rec2.Completed, rec.Completed) || !reflect.DeepEqual(rec2.Incomplete, rec.Incomplete) {
		t.Fatalf("compacted log replays differently:\n got %+v / %+v\nwant %+v / %+v",
			rec2.Completed, rec2.Incomplete, rec.Completed, rec.Incomplete)
	}
}

// Journal ordering in the server means Completed always follows
// Accepted, but a compacted log retains results whose accepted records
// were dropped — replay must treat a done record alone as complete
// state, and tolerate done-before-accepted for one key.
func TestWALReplayOrderIndependence(t *testing.T) {
	res := walRes(0.6)
	req := walReq(1)
	rec := replay([]walRecord{
		{Type: recDone, Key: "k", Result: res},
		{Type: recAccepted, Key: "k", Fingerprint: "fp", Req: &req},
	})
	if len(rec.Incomplete) != 0 {
		t.Fatalf("done job re-enqueued: %+v", rec.Incomplete)
	}
	if len(rec.Completed) != 1 || !reflect.DeepEqual(rec.Completed[0].Result, res) {
		t.Fatalf("completed = %+v", rec.Completed)
	}
}
