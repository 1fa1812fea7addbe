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
func postWire(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", persist.WireContentType)
	req.Header.Set("Accept", persist.WireContentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
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

// TestNodeJSONOnlyRefusesBinary: a node started -wire=json answers
// 415 to binary bodies and does not expose the upgrade endpoint, so
// clients negotiate down instead of misparsing.
func TestNodeJSONOnlyRefusesBinary(t *testing.T) {
	h := NewNodeHandler(ir.NewIndex(), &NodeConfig{JSONOnly: true})

	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	wb.EncodeAddBatchRequest([]persist.Op{{Doc: 1, Text: "ace"}})
	if w := postWire(t, h, dist.PathNodeAddBatch, append([]byte(nil), wb.Bytes()...)); w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("binary batch on JSON-only node = %d, want 415: %s", w.Code, w.Body.Bytes())
	}
	wb.EncodeSearchRequest("ace", ir.EvalPlan{N: 5}, ir.Stats{})
	if w := postWire(t, h, dist.PathNodeSearch, append([]byte(nil), wb.Bytes()...)); w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("binary search on JSON-only node = %d, want 415: %s", w.Code, w.Body.Bytes())
	}

	req := httptest.NewRequest(http.MethodGet, dist.PathNodeWire, nil)
	req.Header.Set("Upgrade", persist.WireProtocol)
	req.Header.Set("Connection", "Upgrade")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("/node/wire on JSON-only node = %d, want 404", w.Code)
	}

	// JSON keeps working.
	if w := postJSON(t, h, dist.PathNodeAddBatch, `{"docs":[{"doc":1,"text":"ace"}]}`); w.Code != http.StatusOK {
		t.Fatalf("JSON batch on JSON-only node = %d: %s", w.Code, w.Body.Bytes())
	}
}

// TestNodeWireAcceptNegotiation: the same endpoint answers JSON or
// framed binary depending on Accept, and the two carry identical
// rankings.
func TestNodeWireAcceptNegotiation(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "melbourne champion ace")
	ix.Add(2, "u", "champion serve")
	h := NewNodeHandler(ix, nil)
	stats := ix.StatsLocal()

	// JSON request, JSON response (no Accept).
	statsJSON, err := json.Marshal(map[string]any{
		"query": "champion", "plan": map[string]any{"n": 5},
		"stats": map[string]any{"df": stats.DF, "total_df": stats.TotalDF, "docs": stats.Docs},
	})
	if err != nil {
		t.Fatal(err)
	}
	wj := postJSON(t, h, dist.PathNodeSearch, string(statsJSON))
	if wj.Code != http.StatusOK {
		t.Fatalf("JSON search = %d: %s", wj.Code, wj.Body.Bytes())
	}
	var jr struct {
		Results []struct {
			Doc   uint64  `json:"doc"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(wj.Body.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}

	// Binary request, binary response.
	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	wb.EncodeSearchRequest("champion", ir.EvalPlan{N: 5}, stats)
	wbin := postWire(t, h, dist.PathNodeSearch, append([]byte(nil), wb.Bytes()...))
	if wbin.Code != http.StatusOK {
		t.Fatalf("binary search = %d: %s", wbin.Code, wbin.Body.Bytes())
	}
	if ct := wbin.Header().Get("Content-Type"); !strings.HasPrefix(ct, persist.WireContentType) {
		t.Fatalf("binary response Content-Type = %q", ct)
	}
	rs, _, err := persist.DecodeSearchResponse(wbin.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(jr.Results) {
		t.Fatalf("binary %d results, JSON %d", len(rs), len(jr.Results))
	}
	for i := range rs {
		if uint64(rs[i].Doc) != jr.Results[i].Doc || rs[i].Score != jr.Results[i].Score {
			t.Fatalf("rank %d: binary %+v, JSON %+v", i, rs[i], jr.Results[i])
		}
	}
}

// TestCoordinatorMixedCodecCluster is the mixed-deployment e2e: one
// binary-speaking node and one JSON-only node behind one coordinator.
// /search must be complete and byte-identical to an all-JSON cluster
// over the same corpus, and /stats must report the negotiated codec
// per replica.
func TestCoordinatorMixedCodecCluster(t *testing.T) {
	corpus := []string{
		"melbourne champion ace", "winner serve volley", "trophy rally smash",
		"champion winner melbourne", "ace court serve", "seles hingis capriati",
	}
	build := func(jsonOnly0, jsonOnly1 bool, codec dist.Codec) http.Handler {
		nodes := make([]dist.Node, 2)
		for i, jo := range []bool{jsonOnly0, jsonOnly1} {
			srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), &NodeConfig{JSONOnly: jo}))
			t.Cleanup(srv.Close)
			rn := dist.NewRemoteNode(srv.URL, srv.Client())
			rn.SetCodec(codec)
			nodes[i] = rn
		}
		cluster := dist.NewClusterOf(nodes, nil)
		co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
		h := co.Handler()
		for i, text := range corpus {
			body, _ := json.Marshal(map[string]any{"doc": i + 1, "text": text})
			if w := postJSON(t, h, "/add", string(body)); w.Code != http.StatusOK {
				t.Fatalf("add %d = %d: %s", i+1, w.Code, w.Body.Bytes())
			}
		}
		return h
	}

	mixed := build(false, true, dist.CodecBinary) // node 0 binary, node 1 JSON-only
	allJSON := build(false, false, dist.CodecJSON)

	for _, q := range []string{"champion", "melbourne winner", "seles", "ace serve court"} {
		for _, n := range []int{1, 2, 4, 8} {
			body, _ := json.Marshal(map[string]any{"query": q, "n": n})
			wm := postJSON(t, mixed, "/search", string(body))
			wj := postJSON(t, allJSON, "/search", string(body))
			if wm.Code != http.StatusOK || wj.Code != http.StatusOK {
				t.Fatalf("q=%q n=%d: mixed=%d json=%d", q, n, wm.Code, wj.Code)
			}
			var mr, jr SearchResponse
			if err := json.Unmarshal(wm.Body.Bytes(), &mr); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(wj.Body.Bytes(), &jr); err != nil {
				t.Fatal(err)
			}
			if !mr.Complete {
				t.Fatalf("q=%q n=%d: mixed cluster incomplete: %+v", q, n, mr)
			}
			if len(mr.Results) != len(jr.Results) {
				t.Fatalf("q=%q n=%d: mixed %d results, json %d", q, n, len(mr.Results), len(jr.Results))
			}
			for i := range jr.Results {
				if mr.Results[i] != jr.Results[i] {
					t.Fatalf("q=%q n=%d rank %d: mixed %+v, json %+v", q, n, i, mr.Results[i], jr.Results[i])
				}
			}
			if mr.Quality != jr.Quality {
				t.Fatalf("q=%q n=%d: mixed quality %v, json %v", q, n, mr.Quality, jr.Quality)
			}
		}
	}

	// /stats surfaces the negotiated codec per replica: the binary
	// node reports "binary", the JSON-only one "json-fallback".
	w := get(t, mixed, "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", w.Code, w.Body.Bytes())
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	codecs := map[string]int{}
	for _, ist := range st.Indexes {
		for _, g := range ist.Groups {
			for _, r := range g.Replicas {
				codecs[r.WireCodec]++
				if r.WireBytesIn == 0 || r.WireBytesOut == 0 {
					t.Fatalf("replica with codec %q reports no traffic: %+v", r.WireCodec, r)
				}
			}
		}
	}
	if codecs["binary"] != 1 || codecs["json-fallback"] != 1 {
		t.Fatalf("negotiated codecs = %v, want one binary and one json-fallback", codecs)
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

// TestRetiredWireKindFailsClosed: an old coordinator's exact top-N
// frame (kind 0x01, retired) on an upgraded connection is answered
// with a framed 400 — and the connection survives: framing never lost
// sync, so the next search frame on the same connection is served.
func TestRetiredWireKindFailsClosed(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "melbourne champion ace")
	srv := httptest.NewServer(NewNodeHandler(ix, nil))
	t.Cleanup(srv.Close)
	exchange := dialWire(t, srv)

	// ("q", n=5, empty statistics) as the last top-N-speaking build
	// framed it: valid in everything but its kind.
	old, err := hex.DecodeString("444c57495245010106000000f9a8505491cc595111fa504773eb232d8ff2d55b965eb636ea4abd09373650b901710a000000")
	if err != nil {
		t.Fatal(err)
	}
	if status, msg := wireError(t, exchange(old)); status != http.StatusBadRequest || !strings.Contains(msg, "unsupported wire message kind") {
		t.Fatalf("retired kind answered %d %q, want 400 unsupported wire message kind", status, msg)
	}

	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	wb.EncodeSearchRequest("champion", ir.EvalPlan{N: 5}, ix.StatsLocal())
	rs, _, err := persist.DecodeSearchResponse(exchange(wb.Bytes()))
	if err != nil {
		t.Fatalf("search after the rejected frame: %v", err)
	}
	if len(rs) != 1 || rs[0].Doc != 1 {
		t.Fatalf("search after the rejected frame = %+v", rs)
	}
}

// TestFailedLogAppendNeverAcknowledged: a node whose op log rejects
// the append (full disk, dead file) must refuse the batch over every
// codec — 502 over JSON, HTTP 502 to a binary body, a framed 502 on
// the persistent connection — apply nothing, and be counted as not
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

	if w := postJSON(t, h, dist.PathNodeAddBatch, `{"docs":[{"doc":1,"text":"melbourne champion"},{"doc":2,"text":"ace"}]}`); w.Code != http.StatusOK {
		t.Fatalf("healthy batch = %d: %s", w.Code, w.Body)
	}
	load := func() (l dist.LoadResponse) {
		t.Helper()
		if err := json.Unmarshal(get(t, h, dist.PathNodeLoad).Body.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		return l
	}
	before := load()
	if before.Docs != 2 || before.LogPos != 2 {
		t.Fatalf("fixture load = %+v, want 2 docs at log position 2", before)
	}

	// The log's file goes away under the node: every append now fails.
	if err := oplog.Close(); err != nil {
		t.Fatal(err)
	}

	if w := postJSON(t, h, dist.PathNodeAddBatch, `{"docs":[{"doc":3,"text":"trophy"}]}`); w.Code != http.StatusBadGateway {
		t.Fatalf("JSON batch on a dead log = %d, want 502: %s", w.Code, w.Body)
	}
	wb := persist.GetWireBuffer()
	defer persist.PutWireBuffer(wb)
	wb.EncodeAddBatchRequest([]persist.Op{{Doc: 4, Text: "rally"}})
	batch := append([]byte(nil), wb.Bytes()...)
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

	if after := load(); after != before {
		t.Fatalf("refused batches changed the node: %+v -> %+v", before, after)
	}
}
