package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// The node server's binary wire support: search and batch ingest speak
// persist frames only, over two transports mirroring the client:
//
//   - the ordinary HTTP endpoints: the request body must carry the wire
//     media type (anything else is 415, nothing applied) and is decoded
//     as one frame, failing closed with a 4xx — a corrupt frame is never
//     partially applied; the 200 answer is one frame;
//   - the persistent-connection transport: GET /node/wire with
//     Upgrade: dlwire hijacks the connection and serves framed RPCs on
//     it until the peer hangs up or goes idle — the per-query HTTP
//     overhead disappears from the hot path.

// wireIdleTimeout is how long an upgraded connection may sit between
// RPCs before the server reclaims it; clients redial transparently.
const wireIdleTimeout = 2 * time.Minute

// wireWriteTimeout bounds writing one response frame.
const wireWriteTimeout = 30 * time.Second

// bodyBufPool pools request-body read buffers for the binary endpoints.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readWireBody reads the whole framed request body into a pooled
// buffer, answering 415 itself when the body is not of the wire media
// type and 413 when the cap is hit. Call release once every slice
// derived from the body is dead (the wire decoders copy all strings
// out, so decode-then-release is safe).
func readWireBody(w http.ResponseWriter, r *http.Request, maxBody int64) (body []byte, release func(), ok bool) {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), persist.WireContentType) {
		fail(w, http.StatusUnsupportedMediaType, "this endpoint takes one "+persist.WireContentType+" frame")
		return nil, nil, false
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	release = func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufPool.Put(buf)
		}
	}
	rb := http.MaxBytesReader(w, r.Body, maxBody)
	if _, err := buf.ReadFrom(rb); err != nil {
		release()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			fail(w, http.StatusRequestEntityTooLarge, "request body too large")
		} else {
			fail(w, http.StatusBadRequest, "read body: "+err.Error())
		}
		return nil, nil, false
	}
	return buf.Bytes(), release, true
}

// writeWire sends one framed binary message as a 200 response.
func writeWire(w http.ResponseWriter, wb *persist.WireBuffer) {
	if err := wb.Err(); err != nil {
		fail(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", persist.WireContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(wb.Bytes())
}

// wireUpgrade serves GET /node/wire: upgrade the connection to the
// persistent framed-RPC transport. Registered outside the request
// semaphore — the connection is long-lived; each RPC on it acquires a
// slot like an HTTP request would, so saturation sheds RPCs (a framed
// 503), not connections.
func (s *NodeServer) wireUpgrade(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), persist.WireProtocol) {
		w.Header().Set("Upgrade", persist.WireProtocol)
		fail(w, http.StatusUpgradeRequired, "upgrade to "+persist.WireProtocol+" required")
		return
	}
	if n := s.wireConns.Add(1); n > int64(s.maxConc) {
		s.wireConns.Add(-1)
		fail(w, http.StatusServiceUnavailable, "wire connection limit reached")
		return
	}
	defer s.wireConns.Add(-1)
	hj, ok := w.(http.Hijacker)
	if !ok {
		fail(w, http.StatusInternalServerError, "connection cannot be hijacked")
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		fail(w, http.StatusInternalServerError, "hijack: "+err.Error())
		return
	}
	defer conn.Close()
	if !s.trackWireConn(conn, r) {
		return // the node server is closing: no new transport
	}
	defer s.untrackWireConn(conn)
	conn.SetWriteDeadline(time.Now().Add(wireWriteTimeout))
	// The advertisement tells the client this node reads traced search
	// frames; a client that ignores it still speaks plain search frames.
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: "+
		persist.WireProtocol+"\r\nConnection: Upgrade\r\n"+persist.WireTracedHeader+": 1\r\n\r\n"); err != nil {
		return
	}
	s.serveWire(conn, rw.Reader)
}

// trackWireConn records a live upgraded connection and, once per
// owning http.Server, hooks that server's graceful shutdown to close
// the whole set: hijacking removed the conn from the server's own
// bookkeeping, so without the hook Shutdown would leave wire conns (and
// their serve goroutines) alive. It reports false once Close has run —
// the caller drops the connection instead of serving it.
func (s *NodeServer) trackWireConn(c net.Conn, r *http.Request) bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.wireClosed {
		return false
	}
	if s.wireLive == nil {
		s.wireLive = make(map[net.Conn]struct{})
	}
	s.wireLive[c] = struct{}{}
	s.wireLoops.Add(1)
	if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok && srv != nil && !s.wireSrvs[srv] {
		if s.wireSrvs == nil {
			s.wireSrvs = make(map[*http.Server]bool)
		}
		s.wireSrvs[srv] = true
		srv.RegisterOnShutdown(s.closeWireConns)
	}
	return true
}

func (s *NodeServer) untrackWireConn(c net.Conn) {
	s.wireMu.Lock()
	delete(s.wireLive, c)
	s.wireMu.Unlock()
	s.wireLoops.Done()
}

// closeWireConns force-closes every live upgraded connection; their
// serve loops exit on the next read. http.Server runs its shutdown
// hooks on goroutines of their own, so Shutdown may return before this
// has: a caller that needs the connections gone calls Close.
func (s *NodeServer) closeWireConns() {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	for c := range s.wireLive {
		c.Close()
	}
}

// Close ends the persistent-connection transport: it refuses further
// upgrades, closes every upgraded connection and returns once their
// serve loops have exited. Call it after the owning http.Server's
// Shutdown returned — Shutdown waits for HTTP requests only, the
// hijacked connections are this server's to reap. Plain HTTP endpoints
// are unaffected.
func (s *NodeServer) Close() {
	s.wireMu.Lock()
	s.wireClosed = true
	s.wireMu.Unlock()
	s.closeWireConns()
	s.wireLoops.Wait()
}

// serveWire answers framed RPCs on one upgraded connection until the
// peer hangs up, goes idle past the timeout, or breaks framing (a
// stream that lost sync cannot be trusted further — it closes; a
// well-framed message that fails verification gets an error frame and
// the connection lives on).
func (s *NodeServer) serveWire(conn net.Conn, br *bufio.Reader) {
	var scratch []byte
	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	for {
		conn.SetReadDeadline(time.Now().Add(wireIdleTimeout))
		frame, err := persist.ReadWireFrame(br, int(s.maxBody), scratch)
		if err != nil {
			return
		}
		scratch = frame
		s.handleWireFrame(frame, wb)
		conn.SetWriteDeadline(time.Now().Add(wireWriteTimeout))
		if err := wb.Err(); err != nil {
			return
		}
		if _, err := conn.Write(wb.Bytes()); err != nil {
			return
		}
	}
}

// handleWireFrame serves one framed RPC, encoding the response (data
// or a framed error) into wb. The request semaphore bounds RPC
// concurrency exactly like it bounds HTTP requests.
func (s *NodeServer) handleWireFrame(frame []byte, wb *persist.WireBuffer) {
	ctx := context.Background()
	kind := persist.WirePeekKind(frame)
	m := s.wireMet[kind]
	if m.count != nil {
		m.count.Inc()
	}
	start := time.Time{}
	if m.lat != nil {
		start = time.Now()
	}
	switch kind {
	case persist.WireSearchRequest, persist.WireTracedSearchRequest:
		var id, query string
		var plan ir.EvalPlan
		var stats ir.Stats
		var err error
		if kind == persist.WireTracedSearchRequest {
			id, query, plan, stats, err = persist.DecodeTracedSearchRequest(frame, nil)
		} else {
			query, plan, stats, err = persist.DecodeSearchRequest(frame, nil)
		}
		if err != nil {
			wb.EncodeError(http.StatusBadRequest, "unusable wire body: "+err.Error())
			break
		}
		if !s.sem.TryAcquire() {
			wb.EncodeError(http.StatusServiceUnavailable, "server at capacity")
			break
		}
		s.serveSearch(ctx, id, query, plan, stats, wb)
		s.sem.Release()
	case persist.WireAddBatchRequest:
		docs, errmsg := decodeBatch(frame)
		if errmsg != "" {
			wb.EncodeError(http.StatusBadRequest, errmsg)
			break
		}
		if !s.sem.TryAcquire() {
			wb.EncodeError(http.StatusServiceUnavailable, "server at capacity")
			break
		}
		err := s.node.AddBatch(ctx, docs)
		s.sem.Release()
		if err != nil {
			wb.EncodeError(http.StatusBadGateway, "batch add failed: "+err.Error())
			break
		}
		wb.EncodeAck()
	default:
		wb.EncodeError(http.StatusBadRequest, "unsupported wire message kind")
	}
	if m.lat != nil {
		m.lat.ObserveSince(start)
	}
}

// decodeBatch decodes and validates one add-batch frame for either
// transport; a non-empty message says why it is refused.
func decodeBatch(frame []byte) ([]dist.Doc, string) {
	ops, err := persist.DecodeAddBatchRequest(frame)
	if err != nil {
		return nil, "unusable wire body: " + err.Error()
	}
	if len(ops) == 0 {
		return nil, "empty batch"
	}
	docs := make([]dist.Doc, len(ops))
	for i := range ops {
		if ops[i].Doc == 0 {
			return nil, "missing document oid in batch"
		}
		docs[i] = dist.Doc{OID: bat.OID(ops[i].Doc), URL: ops[i].URL, Text: ops[i].Text}
	}
	return docs, ""
}

// wireEndpointMetrics is the conn-transport twin of instrument():
// the same per-endpoint counters and latency histograms the HTTP
// handlers feed, so /metrics does not go blind when the hot path
// leaves HTTP.
type wireEndpointMetrics struct {
	count *obs.Counter
	lat   *obs.Histogram
}

func (s *NodeServer) initWireMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.wireMet = make(map[persist.WireKind]wireEndpointMetrics, 3)
	for kind, path := range map[persist.WireKind]string{
		persist.WireSearchRequest:       dist.PathNodeSearch,
		persist.WireTracedSearchRequest: dist.PathNodeSearch,
		persist.WireAddBatchRequest:     dist.PathNodeAddBatch,
	} {
		s.wireMet[kind] = wireEndpointMetrics{
			count: reg.Counter("dl_node_requests_total",
				"Node requests served, by endpoint.", obs.Labels("path", path)),
			lat: reg.Histogram("dl_node_request_seconds",
				"Node request handling time, by endpoint.",
				obs.Labels("path", path), obs.LatencyBounds()),
		}
	}
}
