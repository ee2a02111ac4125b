package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// encodePool recycles response buffers; http.ResponseWriter.Write
// copies what it is given.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReply bounds the buffers encodePool keeps.
const maxPooledReply = 64 << 10

// writeJSON answers with code and v encoded by encoding/json. The body
// is encoded before the status is written, so a value that cannot be
// encoded answers 500 with the reason instead of its status and an
// empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodePool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, &httpError{code: http.StatusInternalServerError, msg: "encoding response: " + err.Error()})
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(buf.Bytes())
	}
	if buf.Cap() <= maxPooledReply {
		encodePool.Put(buf)
	}
}
