// Package server is the networked serving layer: HTTP handlers
// exposing the search engine over the wire. Two roles mirror the
// paper's central-DBMS architecture:
//
//   - the node server (NewNodeHandler) serves one shared-nothing
//     fragment — the dist.Node operations — so an index can live in
//     its own process or machine behind dist.RemoteNode. Search and
//     batch ingest take persist binary frames only (as HTTP bodies or
//     on an upgraded connection); the other operations speak JSON or
//     the persist transfer formats;
//   - the coordinator (NewCoordinator) is the central site: it fans
//     /search out over a dist.Cluster of local and/or remote nodes,
//     merges the per-node RES sets, and exposes its JSON API — /search,
//     /query, /add/stream (NDJSON in and out), /stats, /healthz and
//     more — for clients and operators.
//
// Both roles validate requests (malformed bodies, oversized bodies, bad
// parameters are 4xx, never panics), bound their concurrency with a
// semaphore (503 when saturated) and shut down gracefully via Run.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the serving knobs; constructors apply them when the
// corresponding config field is zero.
const (
	DefaultMaxBody       = 1 << 20 // 1 MiB request-body cap
	DefaultMaxConcurrent = 64      // in-flight requests per handler
	DefaultMaxTopN       = 1000    // /search n is clamped to this
	// DefaultMaxRestoreBody caps POST /node/restore bodies separately
	// from DefaultMaxBody: a restore ships a whole fragment snapshot,
	// which legitimately dwarfs any JSON request.
	DefaultMaxRestoreBody = 1 << 30 // 1 GiB
)

// errorResponse is the uniform error body of both servers.
type errorResponse struct {
	Error string `json:"error"`
}

// jsonBufPool pools JSON response encode buffers: encoding lands in a
// reused buffer and the response writes out in one call, so steady
// traffic stops allocating a fresh growth chain per response.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledJSON caps the buffer capacity worth pooling; a one-off
// giant response must not pin its footprint.
const maxPooledJSON = 1 << 20

// writeJSON encodes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encoding our own response types cannot fail; guard anyway.
		buf.Reset()
		jsonBufPool.Put(buf)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledJSON {
		jsonBufPool.Put(buf)
	}
}

// fail writes a JSON error response.
func fail(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// readJSON decodes the request body into v under the byte cap,
// answering 400 (malformed / trailing data) or 413 (oversized) itself.
// It reports whether decoding succeeded.
func readJSON(w http.ResponseWriter, r *http.Request, maxBody int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	trailing := false
	if err == nil {
		// Only whitespace may follow the value: Token reports io.EOF
		// exactly then (More would pass a stray ']' or '}').
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		trailing = true
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		fail(w, http.StatusRequestEntityTooLarge, "request body too large")
	case trailing:
		fail(w, http.StatusBadRequest, "trailing data after JSON body")
	default:
		fail(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
	}
	return false
}

// requireMethod answers 405 unless the request uses the method.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		fail(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	return true
}

// semaphore bounds a handler to a fixed number of in-flight requests
// and keeps its own pressure observable: current occupancy, the
// configured limit, and how many requests were shed with a 503. Under
// overload the server sheds load instead of queueing unboundedly.
type semaphore struct {
	ch      chan struct{}
	limit   int
	shed    atomic.Uint64
	waiting atomic.Int64
}

func newSemaphore(max int) *semaphore {
	return &semaphore{ch: make(chan struct{}, max), limit: max}
}

// wrap bounds h to the semaphore's limit; a request arriving while it
// is full is answered 503 immediately and counted in Shed.
func (s *semaphore) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.ch <- struct{}{}:
			defer func() { <-s.ch }()
			h.ServeHTTP(w, r)
		default:
			s.shed.Add(1)
			fail(w, http.StatusServiceUnavailable, "server at capacity")
		}
	})
}

// TryAcquire claims a slot without blocking; Release returns it. The
// persistent-connection transport uses the pair so framed RPCs draw
// from the same in-flight budget as HTTP requests.
func (s *semaphore) TryAcquire() bool {
	select {
	case s.ch <- struct{}{}:
		return true
	default:
		s.shed.Add(1)
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (s *semaphore) Release() { <-s.ch }

// Acquire claims a slot, blocking until one frees or ctx is done; it
// reports whether the slot was claimed. Unlike TryAcquire a failed
// (cancelled) wait is not counted as shed — the adaptive admission
// path sheds quality, not queries, and accounts its own rejections.
// Waiters are visible through Waiting so the admission controller can
// read queue pressure.
func (s *semaphore) Acquire(ctx context.Context) bool {
	select {
	case s.ch <- struct{}{}: // fast path: free slot, no bookkeeping
		return true
	default:
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.ch <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Waiting reports the requests currently blocked in Acquire.
func (s *semaphore) Waiting() int { return int(s.waiting.Load()) }

// InFlight reports the requests currently holding a slot.
func (s *semaphore) InFlight() int { return len(s.ch) }

// Limit reports the configured in-flight bound.
func (s *semaphore) Limit() int { return s.limit }

// Shed reports the cumulative 503-shed request count.
func (s *semaphore) Shed() uint64 { return s.shed.Load() }

// Run serves h on addr until ctx is cancelled, then drains in-flight
// requests through a graceful shutdown (bounded by grace; 0 selects
// 5s). It returns nil after a clean shutdown.
func Run(ctx context.Context, addr string, h http.Handler, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return srv.Shutdown(sctx)
	case err := <-errc:
		return err
	}
}
