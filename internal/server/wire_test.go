package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/persist"
)

// postWire posts a raw body with the binary wire Content-Type.
func postWire(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", persist.WireContentType)
	req.Header.Set("Accept", persist.WireContentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// encodeFrame returns the frame one WireBuffer encode call produces.
func encodeFrame(t testing.TB, encode func(*persist.WireBuffer)) []byte {
	t.Helper()
	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	encode(wb)
	if err := wb.Err(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), wb.Bytes()...)
}

// addFrame is one add-batch frame carrying ops.
func addFrame(t testing.TB, ops ...persist.Op) []byte {
	t.Helper()
	return encodeFrame(t, func(wb *persist.WireBuffer) { wb.EncodeAddBatchRequest(ops) })
}

// searchFrame is one search-request frame.
func searchFrame(t *testing.T, query string, plan ir.EvalPlan, st ir.Stats) []byte {
	t.Helper()
	return encodeFrame(t, func(wb *persist.WireBuffer) { wb.EncodeSearchRequest(query, plan, st) })
}

// nodeLoad reads a node handler's /node/load.
func nodeLoad(t *testing.T, h http.Handler) (l dist.LoadResponse) {
	t.Helper()
	if err := json.Unmarshal(get(t, h, dist.PathNodeLoad).Body.Bytes(), &l); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestNodeWireCorruptionFailsClosed: corrupt or truncated binary
// bodies on every node endpoint are rejected with a 4xx and are NEVER
// partially applied — after a poisoned /node/add/batch the index
// holds exactly what it held before.
func TestNodeWireCorruptionFailsClosed(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "melbourne champion")
	h := NewNodeHandler(ix, nil)

	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	wb.EncodeAddBatchRequest([]persist.Op{
		{Doc: 10, Text: "trophy rally"},
		{Doc: 11, Text: "ace court"},
	})
	batch := append([]byte(nil), wb.Bytes()...)

	// A healthy frame commits (sanity check of the fixture).
	if w := postWire(t, h, dist.PathNodeAddBatch, batch); w.Code != http.StatusOK {
		t.Fatalf("healthy wire batch = %d: %s", w.Code, w.Body.Bytes())
	}
	if ix.DocCount() != 3 {
		t.Fatalf("docs = %d, want 3", ix.DocCount())
	}

	wb.EncodeAddBatchRequest([]persist.Op{
		{Doc: 20, Text: "winner"},
		{Doc: 21, Text: "volley"},
	})
	poison := append([]byte(nil), wb.Bytes()...)
	cases := map[string][]byte{
		"truncated":    poison[:len(poison)-3],
		"bit-flipped":  append(append([]byte(nil), poison[:len(poison)-1]...), poison[len(poison)-1]^0x40),
		"header-only":  poison[:persist.WireHeaderLen],
		"garbage":      []byte("this is not a wire frame at all, not even close"),
		"empty":        {},
		"wrong-kind":   nil, // filled below: a verified frame of another kind
		"bad-version":  append([]byte(nil), poison...),
		"trailing-pad": append(append([]byte(nil), poison...), 0xff),
	}
	wb.EncodeAck()
	cases["wrong-kind"] = append([]byte(nil), wb.Bytes()...)
	cases["bad-version"][6] ^= 0x7f

	for name, body := range cases {
		w := postWire(t, h, dist.PathNodeAddBatch, body)
		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("%s batch = %d, want 4xx: %s", name, w.Code, w.Body.Bytes())
		}
		if ix.DocCount() != 3 {
			t.Fatalf("%s batch partially applied: docs = %d, want 3", name, ix.DocCount())
		}
	}

	// The query endpoint fails closed the same way.
	w := postWire(t, h, dist.PathNodeSearch, []byte("garbage garbage garbage garbage garbage garbage"))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("%s garbage = %d, want 400: %s", dist.PathNodeSearch, w.Code, w.Body.Bytes())
	}
}

// TestNodeWireAcceptNegotiation: the hot endpoints speak frames only.
// A frame request gets a frame answer whatever its Accept header asks
// for, and a JSON body — the retired node codec — gets 415 on both
// /node/add/batch and /node/search and applies nothing: the op-log
// position and the document count stay where they were.
func TestNodeWireAcceptNegotiation(t *testing.T) {
	oplog, err := persist.OpenOpLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oplog.Close() })
	h := NewNodeHandler(ir.NewIndex(), &NodeConfig{OpLog: oplog})
	if w := postWire(t, h, dist.PathNodeAddBatch, addFrame(t,
		persist.Op{Doc: 1, URL: "u", Text: "melbourne champion ace"},
		persist.Op{Doc: 2, URL: "u", Text: "champion serve"})); w.Code != http.StatusOK {
		t.Fatalf("frame batch = %d: %s", w.Code, w.Body)
	}
	stats := ir.Stats{DF: map[string]int{"champion": 2}, TotalDF: 6, Docs: 2}
	search := searchFrame(t, "champion", ir.EvalPlan{N: 5}, stats)
	var want []byte
	for _, accept := range []string{"", "application/json", persist.WireContentType} {
		req := httptest.NewRequest(http.MethodPost, dist.PathNodeSearch, bytes.NewReader(search))
		req.Header.Set("Content-Type", persist.WireContentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || !strings.HasPrefix(w.Header().Get("Content-Type"), persist.WireContentType) {
			t.Fatalf("Accept %q: %d %q: %s", accept, w.Code, w.Header().Get("Content-Type"), w.Body)
		}
		rs, _, err := persist.DecodeSearchResponse(w.Body.Bytes())
		if err != nil || len(rs) != 2 {
			t.Fatalf("Accept %q: %+v %v", accept, rs, err)
		}
		if want == nil {
			want = w.Body.Bytes()
		} else if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("Accept %q changed the answer", accept)
		}
	}

	before := nodeLoad(t, h)
	for path, body := range map[string]string{
		dist.PathNodeAddBatch: `{"docs":[{"doc":3,"text":"trophy"}]}`,
		dist.PathNodeSearch:   `{"query":"champion","plan":{"n":5}}`,
	} {
		if w := postJSON(t, h, path, body); w.Code != http.StatusUnsupportedMediaType {
			t.Fatalf("JSON body on %s = %d, want 415: %s", path, w.Code, w.Body)
		}
	}
	if after := nodeLoad(t, h); after.Docs != before.Docs || after.LogPos != before.LogPos {
		t.Fatalf("refused JSON bodies changed the node: %+v -> %+v", before, after)
	}
}

// dialWire upgrades a raw connection to srv's persistent framed
// transport and returns a function that exchanges one frame on it.
func dialWire(t *testing.T, srv *httptest.Server) (exchange func(frame []byte) []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		dist.PathNodeWire, persist.WireProtocol)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("wire upgrade: %v (%+v)", err, resp)
	}
	return func(frame []byte) []byte {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write frame: %v", err)
		}
		out, err := persist.ReadWireFrame(br, 1<<20, nil)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		return out
	}
}

// wireError decodes a framed error answer.
func wireError(t *testing.T, frame []byte) (status int, msg string) {
	t.Helper()
	kind, payload, err := persist.DecodeWire(frame)
	if err != nil || kind != persist.WireError {
		t.Fatalf("want a framed error, got kind %#x err %v", kind, err)
	}
	status, msg, err = persist.DecodeErrorPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	return status, msg
}

// TestRetiredWireKindFailsClosed covers version skew, an old
// coordinator talking to a new node: its exact top-N request (kind
// 0x01) and statistics request (kind 0x04), and the two responses
// (0x11, 0x13) echoed back at it, are answered 400 as HTTP bodies and
// with a framed 400 on an upgraded connection — and the connection
// survives: framing never lost sync, so the next search frame on the
// same connection is served.
func TestRetiredWireKindFailsClosed(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "melbourne champion ace")
	srv := httptest.NewServer(NewNodeHandler(ix, nil))
	t.Cleanup(srv.Close)
	exchange := dialWire(t, srv)

	// Each frame as the last build that spoke its kind framed it, valid
	// in everything but its kind: the top-N request ("q", n=5, empty
	// statistics) and response (an empty RES set), the statistics
	// request (empty) and response (ace=3 champion=7 serv=11).
	for _, h := range []string{
		"444c57495245010106000000f9a8505491cc595111fa504773eb232d8ff2d55b965eb636ea4abd09373650b901710a000000",
		"444c574952450111010000006e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d00",
		"444c57495245010400000000e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"444c57495245011318000000f6ce36959cbe01b2eba7316abe49fb3d150f9f2b91b2de526a18067b735ea3192a12030361636506086368616d70696f6e0e047365727616",
	} {
		old, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if status, msg := wireError(t, exchange(old)); status != http.StatusBadRequest || !strings.Contains(msg, "unsupported wire message kind") {
			t.Fatalf("retired kind 0x%02x answered %d %q, want 400 unsupported wire message kind", old[7], status, msg)
		}
		for _, path := range []string{dist.PathNodeSearch, dist.PathNodeAddBatch} {
			if w := postWire(t, srv.Config.Handler, path, old); w.Code != http.StatusBadRequest {
				t.Fatalf("retired kind 0x%02x on %s = %d, want 400: %s", old[7], path, w.Code, w.Body)
			}
		}
	}

	rs, _, err := persist.DecodeSearchResponse(exchange(searchFrame(t, "champion", ir.EvalPlan{N: 5}, ix.StatsLocal())))
	if err != nil {
		t.Fatalf("search after the rejected frames: %v", err)
	}
	if len(rs) != 1 || rs[0].Doc != 1 {
		t.Fatalf("search after the rejected frames = %+v", rs)
	}
}

// TestFailedLogAppendNeverAcknowledged: a node whose op log rejects
// the append (full disk, dead file) must refuse the batch over both
// transports — HTTP 502 to a frame body, a framed 502 on the
// persistent connection — apply nothing, and be counted as not
// committed by the cluster. Acknowledging here would report a
// document as durable that is neither logged nor searchable.
func TestFailedLogAppendNeverAcknowledged(t *testing.T) {
	oplog, err := persist.OpenOpLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), &NodeConfig{OpLog: oplog}))
	t.Cleanup(srv.Close)
	h := srv.Config.Handler

	if w := postWire(t, h, dist.PathNodeAddBatch, addFrame(t,
		persist.Op{Doc: 1, Text: "melbourne champion"}, persist.Op{Doc: 2, Text: "ace"})); w.Code != http.StatusOK {
		t.Fatalf("healthy batch = %d: %s", w.Code, w.Body)
	}
	before := nodeLoad(t, h)
	if before.Docs != 2 || before.LogPos != 2 {
		t.Fatalf("fixture load = %+v, want 2 docs at log position 2", before)
	}

	// The log's file goes away under the node: every append now fails.
	if err := oplog.Close(); err != nil {
		t.Fatal(err)
	}

	batch := addFrame(t, persist.Op{Doc: 4, Text: "rally"})
	if w := postWire(t, h, dist.PathNodeAddBatch, batch); w.Code != http.StatusBadGateway {
		t.Fatalf("binary batch on a dead log = %d, want 502: %s", w.Code, w.Body)
	}
	if status, msg := wireError(t, dialWire(t, srv)(batch)); status != http.StatusBadGateway {
		t.Fatalf("framed batch on a dead log answered %d %q, want 502", status, msg)
	}

	rn := dist.NewRemoteNode(srv.URL, srv.Client())
	results := dist.NewClusterOf([]dist.Node{rn}, nil).AddBatchResults(context.Background(),
		[]dist.Doc{{OID: 5, Text: "volley"}})
	if p := results[0]; p.Committed != 0 || !p.Failed() {
		t.Fatalf("cluster outcome on a dead log = %+v, want Committed 0 and Failed", p)
	}

	if after := nodeLoad(t, h); after != before {
		t.Fatalf("refused batches changed the node: %+v -> %+v", before, after)
	}
}
