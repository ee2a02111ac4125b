package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadWAL feeds the journal's frame decoder arbitrary bytes (seeds:
// f.Add below and testdata/fuzz/FuzzReadWAL). It must not panic, and:
//
//   - the records it returns come from consecutive frames at the start
//     of the input, each one its own payload re-framed (length and CRC
//     recomputed) and that payload decoding to the record;
//   - each record re-frames (encodeFrame) into a one-record log that
//     decodes back to it;
//   - torn is true exactly when bytes are left after those frames, and
//     the bytes left hold no readable frame.
func FuzzReadWAL(f *testing.F) {
	var log []byte
	req := walReq(1)
	for _, r := range []walRecord{
		{Type: recAccepted, Key: "k1", Fingerprint: "fp1", Req: &req},
		{Type: recDone, Key: "k1", Result: walRes(0.9)},
		{Type: recDone, Key: "k2"},
	} {
		frame, err := encodeFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, frame...)
	}
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-3])              // torn tail
	f.Add(append(log[:8:8], log[9:]...)) // first payload shifted by a byte: CRC mismatch
	f.Fuzz(func(t *testing.T, data []byte) {
		records, torn := decodeWAL(data)
		off := 0
		for i, r := range records {
			if off+walFrameHeader > len(data) {
				t.Fatalf("record %d: no frame header left at offset %d of %d", i, off, len(data))
			}
			end := off + walFrameHeader + int(binary.LittleEndian.Uint32(data[off:]))
			if end <= off+walFrameHeader || end > len(data) {
				t.Fatalf("record %d: frame at %d ends at %d of %d", i, off, end, len(data))
			}
			payload := data[off+walFrameHeader : end]
			if !bytes.Equal(frameOf(payload), data[off:end]) {
				t.Fatalf("record %d: frame at %d does not re-frame from its payload", i, off)
			}
			var back walRecord
			if err := json.Unmarshal(payload, &back); err != nil || !sameRecord(t, back, r) {
				t.Fatalf("record %d: payload %q decodes to %+v (%v), decoder returned %+v", i, payload, back, err, r)
			}
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("record %d: re-encoding: %v", i, err)
			}
			if again, torn := decodeWAL(frame); torn || len(again) != 1 || !sameRecord(t, again[0], r) {
				t.Fatalf("record %d: re-framed log decodes to %+v (torn %v)", i, again, torn)
			}
			off = end
		}
		if torn != (off < len(data)) {
			t.Fatalf("torn = %v with %d of %d bytes read", torn, off, len(data))
		}
		if rest, _ := decodeWAL(data[off:]); len(rest) != 0 {
			t.Fatalf("decoder stopped at %d before a readable frame", off)
		}
	})
}

// FuzzEventStream feeds the SSE relay's decoder arbitrary bytes (seeds:
// testdata/fuzz/FuzzEventStream, a relay transcript among them). It must
// not panic, and:
//
//   - every Next that returns an event consumed input, so a reader loop
//     ends; once Next returns an error it keeps returning one;
//   - name and data framed the way the server writes an event (writeSSE:
//     "event: %s\ndata: %s\n\n", the data JSON) decode back to that name
//     and data, after a keep-alive comment and twice in a row, and
//     nothing follows them.
//
// A line over maxEventLine is TestEventStreamLongLine's.
func FuzzEventStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, name, data string) {
		es := newEventStream(io.NopCloser(bytes.NewReader(raw)), func() {})
		consumed := 0
		es.sc.Split(func(buf []byte, atEOF bool) (int, []byte, error) {
			advance, line, err := bufio.ScanLines(buf, atEOF)
			consumed += advance
			return advance, line, err
		})
		for events := 0; ; events++ {
			before := consumed
			ev, err := es.Next()
			if err != nil {
				if _, again := es.Next(); again == nil {
					t.Fatalf("Next returned an event after the error %v", err)
				}
				break
			}
			if consumed <= before {
				t.Fatalf("event %d (%q, %q) consumed no input", events, ev.Name, ev.Data)
			}
		}
		if err := es.Close(); err != nil {
			t.Fatal(err)
		}

		if strings.ContainsAny(name, "\r\n") || strings.TrimSpace(name) != name {
			return // not a name the server writes
		}
		blob, err := json.Marshal(data)
		if err != nil {
			t.Fatal(err)
		}
		frame := fmt.Sprintf("event: %s\ndata: %s\n\n", name, blob)
		es = newEventStream(io.NopCloser(strings.NewReader(": keep-alive\n\n"+frame+frame)), func() {})
		for i := 0; i < 2; i++ {
			ev, err := es.Next()
			if err != nil || ev.Name != name || !bytes.Equal(ev.Data, blob) {
				t.Fatalf("frame %d of %q decodes to (%q, %q, %v), want (%q, %q)", i, frame, ev.Name, ev.Data, err, name, blob)
			}
		}
		if ev, err := es.Next(); err == nil {
			t.Fatalf("an event (%q, %q) past the frames", ev.Name, ev.Data)
		}
	})
}

// A line over 1 MiB ends the stream with bufio.ErrTooLong: the decoder
// reads at most 1 MiB of it and its buffer stops growing there, however
// long the line.
func TestEventStreamLongLine(t *testing.T) {
	const mib, line = 1 << 20, 8 << 20
	var read countingReader
	read.r = io.MultiReader(strings.NewReader("event: iteration\ndata: "),
		bytes.NewReader(bytes.Repeat([]byte("x"), line)), strings.NewReader("\n\n"))
	es := newEventStream(io.NopCloser(&read), func() {})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := es.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: Next returned %v, want bufio.ErrTooLong", line, err)
	}
	if _, err := es.Next(); err == nil {
		t.Fatal("Next returned an event after the error")
	}
	if read.n > mib+64 {
		t.Errorf("read %d bytes of a %d-byte line, the cap is %d", read.n, line, mib)
	}
	// The buffer doubles from 4 KiB up to the cap: under 2 MiB in all.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*mib {
		t.Errorf("allocated %d bytes for a %d-byte line", alloc, line)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// sameRecord compares two records by their encoding, which is what the
// journal stores (a nil and an empty slice encode alike).
func sameRecord(t *testing.T, a, b walRecord) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	if errA != nil || errB != nil {
		t.Fatalf("encoding records: %v, %v", errA, errB)
	}
	return bytes.Equal(ja, jb)
}
