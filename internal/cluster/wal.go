// Package cluster scales qaoad from one process to a fleet. It
// provides the three distribution pieces the serving layer plugs in
// through narrow interfaces (see server.Journal and server.Dispatcher):
//
//   - WAL: a durable append-only job journal — CRC-framed, fsync'd
//     records of accepted solves and their terminal results — with
//     torn-tail recovery and compaction, so kill -9 loses no accepted
//     work and completed results replay straight into the result cache;
//   - Ring: consistent hashing over canonical instance fingerprints,
//     so repeat requests land on whichever worker owns (and has
//     cached) the key — the result cache becomes a sharded tier;
//   - Dispatcher: the coordinator side of the coordinator/worker
//     split — a health-checked worker registry, per-worker cost
//     budgets reusing the admission price, retry with backoff and
//     re-dispatch on worker death, and end-to-end cancellation (a
//     client disconnect at the coordinator aborts the remote
//     optimizer), with per-iteration trace events relayed back over
//     SSE for /v1/jobs/{id}/events proxying.
//
// Determinism is the load-bearing property throughout: a re-dispatched
// job produces a bit-identical result on any worker, and a journaled
// result is exactly what the same request would compute again, which
// is what makes both crash recovery and the distributed cache exact
// rather than approximate.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"qaoaml/internal/server"
)

// WAL record framing: each record is [len u32][crc32 u32][payload],
// little-endian, payload = one JSON walRecord, fsync'd per append. A
// crash can only tear the final record; recovery verifies length and
// CRC and drops the torn tail.
const (
	walMaxRecordLen = 16 << 20 // sanity bound on one record (a solve request is ≪ 1 MiB)
	walFrameHeader  = 8        // len + crc

	// walKeepCompleted caps how many completed results compaction
	// retains (newest win): enough to re-warm the default result cache
	// (256 entries) with headroom, while bounding WAL growth across
	// restarts.
	walKeepCompleted = 1024
)

// Record types.
const (
	recAccepted = "accepted"
	recDone     = "done" // Result nil = settled without a cacheable result (failed/cancelled)
)

// walRecord is the JSON payload of one frame.
type walRecord struct {
	Type        string               `json:"type"`
	Key         string               `json:"key"`
	Fingerprint string               `json:"fp,omitempty"`
	Req         *server.SolveRequest `json:"req,omitempty"`
	Result      *server.SolveResult  `json:"result,omitempty"`
}

// IncompleteJob is an accepted job with no terminal record: work the
// process died holding, to be re-enqueued on recovery.
type IncompleteJob struct {
	Key         string
	Fingerprint string
	Req         server.SolveRequest
}

// CompletedJob is a journaled result, replayable into the result cache.
type CompletedJob struct {
	Key    string
	Result *server.SolveResult
}

// Recovery is what OpenWAL reconstructed from the log.
type Recovery struct {
	// Incomplete lists accepted-but-unfinished jobs in acceptance
	// order; re-enqueue them via server.Resubmit.
	Incomplete []IncompleteJob
	// Completed lists journaled results in completion order (settled
	// jobs with no result are excluded); replay via server.SeedCache.
	Completed []CompletedJob
	// Torn reports that a torn or corrupt tail record was dropped —
	// the expected signature of a mid-write crash.
	Torn bool
	// Records counts the valid records read.
	Records int
}

// WAL is the durable job journal. It implements server.Journal.
// Appends are serialized and fsync'd: when Accepted returns, the
// record is on disk.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

var _ server.Journal = (*WAL)(nil)

// OpenWAL opens (or creates) the journal at path, recovers its state,
// compacts the log — the rewritten file carries one accepted record
// per incomplete job and the newest walKeepCompleted results, dropping
// settled and superseded records and any torn tail — and returns the
// WAL ready for appends plus the recovered state.
func OpenWAL(path string) (*WAL, *Recovery, error) {
	records, torn, err := readWALRecords(path)
	if err != nil {
		return nil, nil, err
	}
	rec := replay(records)
	rec.Torn = torn
	rec.Records = len(records)
	if err := compact(path, rec); err != nil {
		return nil, nil, fmt.Errorf("cluster: compacting wal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: opening wal %s: %w", path, err)
	}
	return &WAL{f: f, path: path}, rec, nil
}

// Accepted implements server.Journal.
func (w *WAL) Accepted(key, fingerprint string, req server.SolveRequest) error {
	r := req // journal the request without client-facing flags
	r.Wait = false
	return w.append(walRecord{Type: recAccepted, Key: key, Fingerprint: fingerprint, Req: &r})
}

// Completed implements server.Journal.
func (w *WAL) Completed(key string, res *server.SolveResult) error {
	return w.append(walRecord{Type: recDone, Key: key, Result: res})
}

// Close syncs and closes the journal file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Path returns the journal file path.
func (w *WAL) Path() string { return w.path }

func (w *WAL) append(r walRecord) error {
	frame, err := encodeFrame(r)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("cluster: wal %s is closed", w.path)
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("cluster: appending to wal %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing wal %s: %w", w.path, err)
	}
	return nil
}

func encodeFrame(r walRecord) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding wal record: %w", err)
	}
	if len(payload) > walMaxRecordLen {
		return nil, fmt.Errorf("cluster: wal record of %d bytes exceeds the %d limit", len(payload), walMaxRecordLen)
	}
	return frameOf(payload), nil
}

// frameOf prefixes a payload with its length and CRC.
func frameOf(payload []byte) []byte {
	frame := make([]byte, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[walFrameHeader:], payload)
	return frame
}

// readWALRecords reads every intact record of the log at path (see
// decodeWAL); a missing file is an empty log.
func readWALRecords(path string) (records []walRecord, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cluster: reading wal %s: %w", path, err)
	}
	records, torn = decodeWAL(data)
	return records, torn, nil
}

// decodeWAL decodes the frames of a log. It stops at the first frame
// whose length runs past the end, whose CRC mismatches, or whose payload
// is not a valid record — the torn tail a crash mid-append leaves — and
// reports torn=true for any unread remainder.
func decodeWAL(data []byte) (records []walRecord, torn bool) {
	off := 0
	for off+walFrameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n <= 0 || n > walMaxRecordLen || off+walFrameHeader+n > len(data) {
			break
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		var r walRecord
		if json.Unmarshal(payload, &r) != nil || (r.Type != recAccepted && r.Type != recDone) {
			break
		}
		records = append(records, r)
		off += walFrameHeader + n
	}
	return records, off < len(data)
}

// replay folds the record sequence into recovered state. Duplicate
// accepted records for one key (a recovered job re-journaled on
// resubmission) collapse; a done record settles its key whether it
// appears before or after its accepted record (completion and
// acceptance race only in journal order, never in meaning).
func replay(records []walRecord) *Recovery {
	type entry struct {
		accepted *IncompleteJob
		done     bool
		result   *server.SolveResult
	}
	state := make(map[string]*entry)
	var order []string // first-touch order, for deterministic output
	touch := func(key string) *entry {
		e := state[key]
		if e == nil {
			e = &entry{}
			state[key] = e
			order = append(order, key)
		}
		return e
	}
	for _, r := range records {
		if r.Key == "" {
			continue
		}
		e := touch(r.Key)
		switch r.Type {
		case recAccepted:
			if e.accepted == nil && r.Req != nil {
				e.accepted = &IncompleteJob{Key: r.Key, Fingerprint: r.Fingerprint, Req: *r.Req}
			}
		case recDone:
			e.done = true
			if r.Result != nil {
				e.result = r.Result
			}
		}
	}
	rec := &Recovery{}
	for _, key := range order {
		e := state[key]
		switch {
		case e.done && e.result != nil:
			rec.Completed = append(rec.Completed, CompletedJob{Key: key, Result: e.result})
		case !e.done && e.accepted != nil:
			rec.Incomplete = append(rec.Incomplete, *e.accepted)
		}
		// done with nil result (settled) or a done record whose
		// accepted half was torn away: nothing to recover.
	}
	return rec
}

// compact atomically rewrites the log to exactly the live state: the
// newest walKeepCompleted results plus every incomplete acceptance.
// The rewrite goes through a temp file + rename so a crash during
// compaction leaves either the old or the new log, never a hybrid.
func compact(path string, rec *Recovery) error {
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	write := func(r walRecord) error {
		frame, err := encodeFrame(r)
		if err != nil {
			return err
		}
		_, err = f.Write(frame)
		return err
	}
	completed := rec.Completed
	if len(completed) > walKeepCompleted {
		completed = completed[len(completed)-walKeepCompleted:]
	}
	for _, c := range completed {
		if err := write(walRecord{Type: recDone, Key: c.Key, Result: c.Result}); err != nil {
			f.Close()
			return err
		}
	}
	for i := range rec.Incomplete {
		in := &rec.Incomplete[i]
		if err := write(walRecord{Type: recAccepted, Key: in.Key, Fingerprint: in.Fingerprint, Req: &in.Req}); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
