package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// maxNesting is encoding/json's nesting limit: a body nested deeper is
// a syntax error there, and itemSpans refuses it too.
const maxNesting = 10000

// decodeRequest decodes one request body held in data into v. Unknown
// keys are rejected, not ignored: with per-family payloads a silently
// dropped field would solve a different instance than the client thinks
// it submitted. For the same reason the body must hold exactly one JSON
// value: anything but whitespace after it is refused. A syntax or type
// error, or the body's early end, names its byte offset.
func decodeRequest(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var syntax *json.SyntaxError
		var kind *json.UnmarshalTypeError
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return fmt.Errorf("unexpected end of JSON input at offset %d", len(data))
		case errors.As(err, &syntax):
			return fmt.Errorf("%w at offset %d", err, syntax.Offset)
		case errors.As(err, &kind):
			return fmt.Errorf("%w at offset %d", err, kind.Offset)
		}
		return err
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return errTrailing
	}
	return nil
}

var errTrailing = errors.New("trailing data after the JSON value")

// bodyPool recycles body buffers: a decoded request shares no memory
// with its body (every string is copied out).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers bodyPool keeps, and the buffer a
// declared length pre-sizes: a rare large body is left to the collector,
// and grows only as its bytes arrive.
const maxPooledBody = 64 << 10

// readRequest reads a request body of at most limit bytes into a pooled
// buffer, which the caller hands back with putBody once nothing reads
// it any more.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64) (*[]byte, *httpError) {
	buf := bodyPool.Get().(*[]byte)
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), (*buf)[:0], r.ContentLength, limit)
	*buf = body
	if err != nil {
		putBody(buf)
		return nil, badRequest("decoding request: %v", err)
	}
	return buf, nil
}

// putBody returns a body buffer to bodyPool, unless it grew past
// maxPooledBody.
func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		*buf = (*buf)[:0]
		bodyPool.Put(buf)
	}
}

// readBody reads r to its end into buf. The buffer is sized from the
// declared length when that is within limit, up to maxPooledBody, and
// otherwise grown as bytes arrive, never past limit+1: a forged or
// unfulfilled Content-Length buys at most maxPooledBody bytes. The
// caller's reader enforces limit itself.
func readBody(r io.Reader, buf []byte, declared, limit int64) ([]byte, error) {
	if want := min(declared, maxPooledBody) + 1; declared > 0 && declared <= limit && int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) > int(limit) {
			return buf, &http.MaxBytesError{Limit: limit} // r did not enforce limit
		}
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), 512), int(limit)+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ---- batch item spans ----

// itemSpans returns each item's byte range when body is exactly
// {"items":[…]} holding one or more objects, whitespace aside: the
// spans the memo keys and decodeBatch decodes one by one. Any other
// shape — a folded or escaped key, a second key, an item that is not an
// object, trailing data, nesting past maxNesting — returns false, and
// the body is decoded whole. The scan validates nothing inside an item;
// decoding each span validates it, and a body whose every span decodes
// is one decodeRequest accepts, with those items.
func itemSpans(body []byte) ([][2]int, bool) {
	i, ok := expect(body, 0, `{`)
	if ok {
		i, ok = expect(body, i, `"items"`)
	}
	if ok {
		i, ok = expect(body, i, `:`)
	}
	if ok {
		i, ok = expect(body, i, `[`)
	}
	if !ok {
		return nil, false
	}
	spans := make([][2]int, 0, 16)
	for {
		start := skipSpace(body, i)
		end, ok := objectEnd(body, start)
		if !ok {
			return nil, false
		}
		spans = append(spans, [2]int{start, end})
		if i, ok = expect(body, end, `,`); ok {
			continue
		}
		if i, ok = expect(body, end, `]`); ok {
			break
		}
		return nil, false
	}
	if i, ok = expect(body, i, `}`); !ok || skipSpace(body, i) != len(body) {
		return nil, false
	}
	return spans, true
}

// skipSpace returns the offset of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// expect skips whitespace from i and consumes tok, returning the offset
// after it.
func expect(b []byte, i int, tok string) (int, bool) {
	i = skipSpace(b, i)
	if !bytes.HasPrefix(b[i:], []byte(tok)) {
		return i, false
	}
	return i + len(tok), true
}

// objectEnd returns the offset just past the object that opens at b[i],
// matching brackets outside strings. It refuses an object that is not
// closed, and one nested past maxNesting once the batch's own object
// and array are counted.
func objectEnd(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	depth := 0
	for ; i < len(b); i++ {
		if !structural[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if depth++; depth+2 > maxNesting {
				return 0, false
			}
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1, true
			}
		}
	}
	return 0, false
}

// structural marks the bytes objectEnd stops at: most of an item is
// digits, commas and letters it steps over.
var structural = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true}
