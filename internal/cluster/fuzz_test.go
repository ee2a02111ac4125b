package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
