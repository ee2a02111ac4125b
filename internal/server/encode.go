package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Job views — the reply of every solve, job and batch request — are
// written by an appender instead of encoding/json's reflection. Its
// output is the bytes json.NewEncoder(w).Encode(v) writes, newline
// included: HTML-safe string escaping (<, >, &, U+2028, U+2029, and
// invalid UTF-8 as \ufffd), ES6 float formatting, RFC 3339 times with
// nanoseconds, and the structs' omitempty rules. Whatever it cannot
// write that way — a non-finite float, a time outside RFC 3339 — goes
// to encoding/json, which then reports the error. Every other reply
// (errors, /healthz) is encoded by encoding/json.

// encodePool recycles response buffers; http.ResponseWriter.Write
// copies what it is given.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply bounds the buffers encodePool keeps.
const maxPooledReply = 64 << 10

// writeJSON answers with code and v encoded. The body is encoded before
// the status is written, so a value that cannot be encoded answers 500
// with the reason instead of its status and an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	bp := encodePool.Get().(*[]byte)
	b, err := appendJSON((*bp)[:0], v)
	if err != nil {
		writeError(w, &httpError{code: http.StatusInternalServerError, msg: "encoding response: " + err.Error()})
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledReply {
		*bp = b[:0]
		encodePool.Put(bp)
	}
}

// appendJSON appends what json.NewEncoder(w).Encode(v) writes.
func appendJSON(b []byte, v any) ([]byte, error) {
	n, ok := len(b), false
	switch v := v.(type) {
	case JobView:
		b, ok = appendJobView(b, &v)
	case BatchResponse:
		b, ok = appendBatchResponse(b, &v)
	}
	if ok {
		return append(b, '\n'), nil
	}
	buf := bytes.NewBuffer(b[:n])
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// appendBatchResponse appends r's JSON; ok is false if some value needs
// encoding/json.
func appendBatchResponse(b []byte, r *BatchResponse) ([]byte, bool) {
	b = append(b, `{"items":`...)
	if r.Items == nil {
		return append(b, "null}"...), true
	}
	b = append(b, '[')
	for i := range r.Items {
		it := &r.Items[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"code":`...)
		b = strconv.AppendInt(b, int64(it.Code), 10)
		if it.Error != "" {
			b = append(b, `,"error":`...)
			b = appendString(b, it.Error)
		}
		if it.Deduped {
			b = append(b, `,"deduped":true`...)
		}
		if it.Job != nil {
			var ok bool
			b = append(b, `,"job":`...)
			if b, ok = appendJobView(b, it.Job); !ok {
				return b, false
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), true
}

// appendJobView appends v's JSON; ok is false if some value needs
// encoding/json.
func appendJobView(b []byte, v *JobView) ([]byte, bool) {
	ok := true
	b = append(b, `{"id":`...)
	b = appendString(b, v.ID)
	b = append(b, `,"state":`...)
	b = appendString(b, string(v.State))
	if v.Cached {
		b = append(b, `,"cached":true`...)
	}
	if v.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if r := v.Result; r != nil {
		b = append(b, `,"result":{"strategy":`...)
		b = appendString(b, r.Strategy)
		if r.Problem != "" {
			b = append(b, `,"problem":`...)
			b = appendString(b, r.Problem)
		}
		b = append(b, `,"ar":`...)
		b, ok = appendFloat(b, r.AR, ok)
		b = append(b, `,"gamma":`...)
		b, ok = appendFloats(b, r.Gamma, ok)
		b = append(b, `,"beta":`...)
		b, ok = appendFloats(b, r.Beta, ok)
		b = append(b, `,"nfev":`...)
		b = strconv.AppendInt(b, int64(r.NFev), 10)
		if r.Level1AR != 0 {
			b = append(b, `,"level1_ar":`...)
			b, ok = appendFloat(b, r.Level1AR, ok)
		}
		if r.Objective != 0 {
			b = append(b, `,"objective":`...)
			b, ok = appendFloat(b, r.Objective, ok)
		}
		if r.Assignment != "" {
			b = append(b, `,"assignment":`...)
			b = appendString(b, r.Assignment)
		}
		b = append(b, `,"fingerprint":`...)
		b = appendString(b, r.Fingerprint)
		b = append(b, '}')
	}
	if v.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, v.Error)
	}
	b = append(b, `,"enqueued":`...)
	b, ok = appendTime(b, v.Enqueued, ok)
	if v.Started != nil {
		b = append(b, `,"started":`...)
		b, ok = appendTime(b, *v.Started, ok)
	}
	if v.Finished != nil {
		b = append(b, `,"finished":`...)
		b, ok = appendTime(b, *v.Finished, ok)
	}
	return append(b, '}'), ok
}

func appendFloats(b []byte, fs []float64, ok bool) ([]byte, bool) {
	if fs == nil {
		return append(b, "null"...), ok
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b, ok = appendFloat(b, f, ok)
	}
	return append(b, ']'), ok
}

// appendFloat formats f as encoding/json does — the shortest decimal
// that round-trips, in ES6 style: plain between 1e-6 and 1e21, exponent
// form outside with no zero padding (1e-7, not 1e-07). A NaN or an
// infinity clears ok.
func appendFloat(b []byte, f float64, ok bool) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, ok
}

// appendTime writes t as time.Time.MarshalJSON does (RFC 3339 with
// nanoseconds). A time MarshalJSON refuses — a year outside [0, 9999],
// a zone offset of a day or more — clears ok.
func appendTime(b []byte, t time.Time, ok bool) ([]byte, bool) {
	b = append(b, '"')
	n := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n+len("9999")] != '-' {
		ok = false
	} else if z := b[len(b)-len("Z07:00"):]; b[len(b)-1] != 'Z' && (isDigit(z[0]) || 10*(z[1]-'0')+z[2]-'0' >= 24) {
		ok = false
	}
	return append(b, '"'), ok
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// hex is the digit set of \u escapes.
const hex = "0123456789abcdef"

// appendString writes s as a JSON string the way encoding/json does
// with HTML escaping on (its default): control characters, <, > and &
// as \u00XX (\b \f \n \r \t by their short forms), U+2028 and U+2029
// escaped, each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
