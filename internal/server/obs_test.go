package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// syncBuffer is a goroutine-safe log sink for the slow-query logs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestObservabilityEndToEnd drives a coordinator over two remote node
// servers with full instrumentation, once per node transport: the
// coordinator's request ID must be echoed in the /search response AND
// appear in a node-side slow-query line with a scoring span
// (propagated as X-DL-Request over HTTP, inside a traced frame on the
// persistent connection — which then carries every search), /metrics
// must serve Prometheus text on both roles with every node search
// counted, and the /stats metrics view must report latency quantiles
// and the semaphore limit.
func TestObservabilityEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec dist.Codec
	}{{"binary", dist.CodecBinary}, {"wire", dist.CodecWire}} {
		t.Run(tc.name, func(t *testing.T) { testObservabilityEndToEnd(t, tc.codec, tc.name) })
	}
}

func testObservabilityEndToEnd(t *testing.T, codec dist.Codec, codecName string) {
	var nodeSlow syncBuffer
	nodeReg := obs.NewRegistry()
	var nodeServers []*httptest.Server
	var nodes []dist.Node
	var remotes []*dist.RemoteNode
	var httpSearches atomic.Int64 // searches that arrived as HTTP bodies
	for i := 0; i < 2; i++ {
		ns := NewNodeServer(ir.NewIndex(), &NodeConfig{
			Metrics:   nodeReg,
			SlowQuery: obs.NewSlowQueryLog(&nodeSlow, time.Nanosecond),
		})
		h := ns.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == dist.PathNodeSearch {
				httpSearches.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); ns.Close() })
		nodeServers = append(nodeServers, ts)
		rn := dist.NewRemoteNode(ts.URL, nil)
		rn.SetCodec(codec)
		t.Cleanup(func() { rn.SetCodec(dist.CodecBinary) })
		nodes = append(nodes, rn)
		remotes = append(remotes, rn)
	}
	cluster := dist.NewClusterOf(nodes, nil)

	var coSlow syncBuffer
	coReg := obs.NewRegistry()
	co := NewCoordinator(map[string]*dist.Cluster{"lib": cluster}, &CoordinatorConfig{
		Metrics:   coReg,
		SlowQuery: obs.NewSlowQueryLog(&coSlow, time.Nanosecond),
	})
	cot := httptest.NewServer(co.Handler())
	defer cot.Close()

	post := func(path, body string) (*http.Response, []byte) {
		resp, err := http.Post(cot.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, buf.String())
		}
		return buf.String()
	}

	if resp, body := post("/add/stream", `{"text":"tennis champion trophy"}
{"text":"winning serve at the open"}`); resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"committed":2,"degraded":0,"failed":0,"errors":0`)) {
		t.Fatalf("/add/stream: %d %s", resp.StatusCode, body)
	}

	const searches = 5
	var reqID string
	for i := 0; i < searches; i++ {
		resp, body := post("/search", `{"query":"champion serve","n":5}`)
		if resp.StatusCode != 200 {
			t.Fatalf("/search: %d %s", resp.StatusCode, body)
		}
		reqID = resp.Header.Get(obs.HeaderRequestID)
		if reqID == "" {
			t.Fatal("no X-DL-Request header echoed on /search")
		}
	}

	// The coordinator's request ID must appear in BOTH slow-query logs
	// — that is the trace join the whole feature is for — and the node's
	// line must break out its scoring.
	for _, log := range []struct{ role, text, span string }{
		{"coordinator", coSlow.String(), "fanout"},
		{"node", nodeSlow.String(), "scoring"},
	} {
		var line string
		for _, l := range strings.Split(log.text, "\n") {
			if strings.Contains(l, reqID) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("%s slow-query log does not carry request ID %s:\n%s", log.role, reqID, log.text)
		}
		var rec obs.SlowQueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s slow-query line is not JSON: %v\n%s", log.role, err, line)
		}
		if rec.Role != log.role || rec.RequestID != reqID || !slices.ContainsFunc(rec.Spans, func(s obs.SpanJSON) bool { return s.Name == log.span }) {
			t.Fatalf("%s slow-query record = %+v, want role %q, ID %s and a %s span", log.role, rec, log.role, reqID, log.span)
		}
	}

	// The transport carried what it claims: over the persistent
	// connection no search falls back to an HTTP body.
	for i, rn := range remotes {
		if got, _, _ := rn.WireInfo(); got != codecName {
			t.Fatalf("node %d: WireInfo codec = %q, want %q", i, got, codecName)
		}
	}
	if n := httpSearches.Load(); (codec == dist.CodecWire) != (n == 0) {
		t.Fatalf("codec=%s: %d searches arrived as HTTP bodies", codecName, n)
	}

	// Coordinator /metrics: Prometheus text with the search counter at
	// the served count and a non-empty latency histogram.
	met := get(cot.URL + "/metrics")
	for _, want := range []string{
		`dl_coordinator_requests_total{op="search"} 5`,
		`dl_search_latency_seconds_bucket{index="lib",le="+Inf"} 5`,
		`dl_search_quality_count{index="lib"} 5`,
		"go_goroutines",
	} {
		if !strings.Contains(met, want) {
			t.Fatalf("coordinator /metrics missing %q:\n%s", want, met)
		}
	}
	// Node /metrics (one registry for both nodes): every search reached
	// both nodes and was counted on its endpoint, whatever the transport;
	// the scoring histogram is fed.
	nmet := get(nodeServers[0].URL + "/metrics")
	for _, want := range []string{
		fmt.Sprintf(`dl_node_requests_total{path="/node/search"} %d`, 2*searches),
		"dl_node_scoring_seconds_count",
		"dl_node_ingest_docs_total",
	} {
		if !strings.Contains(nmet, want) {
			t.Fatalf("node /metrics missing %q:\n%s", want, nmet)
		}
	}
	// The retired ops left no series behind.
	for _, gone := range []string{`path="/node/topn"`, `path="/node/add"`} {
		if strings.Contains(nmet, gone) {
			t.Fatalf("node /metrics still exports a %s series:\n%s", gone, nmet)
		}
	}

	// /stats: latency/quality quantiles per index plus the semaphore
	// limit, in the metrics view.
	var st StatsResponse
	if err := json.Unmarshal([]byte(get(cot.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if lat := statsSeries(t, st, "dl_search_latency_seconds", "index", "lib").HistSummary; lat == nil || lat.Count != searches || lat.P95 <= 0 {
		t.Fatalf("stats latency quantiles = %+v, want count %d with positive p95", lat, searches)
	}
	if q := statsSeries(t, st, "dl_search_quality", "index", "lib").HistSummary; q == nil || q.Count != searches {
		t.Fatalf("stats quality quantiles = %+v, want count %d", q, searches)
	}
	if limit := statsValue(t, st, "dl_coordinator_max_concurrent"); limit != DefaultMaxConcurrent {
		t.Fatalf("stats semaphore limit = %v, want %d", limit, DefaultMaxConcurrent)
	}
	lib := st.Indexes["lib"]
	if len(lib.Groups) == 0 || lib.Groups[0].Replicas[0].RPCCalls == 0 {
		t.Fatalf("replica RPC telemetry missing: %+v", lib.Groups)
	}
}

// executeSpan returns the execute span of the last record in a
// coordinator's slow-query log.
func executeSpan(t *testing.T, log string) obs.SpanJSON {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(log), "\n")
	var rec obs.SlowQueryRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, log)
	}
	for _, s := range rec.Spans {
		if s.Name == "execute" {
			return s
		}
	}
	t.Fatalf("slow-query record has no execute span: %+v", rec)
	return obs.SpanJSON{}
}

// TestQueryExecuteSpanDetail: the /query trace's execute span says how
// deep a bounded contains ranking went (ranked=<k> widened=<n>), and
// the slow-query log carries it. A query the bound does not apply to
// has no detail.
func TestQueryExecuteSpanDetail(t *testing.T) {
	var slow syncBuffer
	h, _ := tieCoordinator(t, 20, &slow)
	for _, c := range []struct{ query, detail string }{
		// 20 ties: k = 24 comes back short, so the first attempt stands;
		// k = 8 ends inside the tie group and widens to 32.
		{tieQuery, "ranked=24 widened=0"},
		{"SELECT p.name FROM Player p WHERE contains(p.history, 'tiebreak') LIMIT 1", "ranked=32 widened=1"},
		{"SELECT p.name FROM Player p WHERE contains(p.history, 'tiebreak')", ""},
	} {
		body, _ := json.Marshal(QueryRequest{Query: c.query})
		if w := postJSON(t, h, "/query", string(body)); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.query, w.Code, w.Body)
		}
		if got := executeSpan(t, slow.String()).Detail; got != c.detail {
			t.Fatalf("%s: execute span detail %q, want %q", c.query, got, c.detail)
		}
	}
}

// TestNodeQueryUntracedWhenUninstrumented: without a request ID and
// without a slow-query log, the node query path must not create a
// trace (no echoed header) — that is what keeps the benchmark path
// allocation-free.
func TestNodeQueryUntracedWhenUninstrumented(t *testing.T) {
	h := NewNodeHandler(ir.NewIndex(), nil)
	w := postWire(t, h, dist.PathNodeSearch, searchFrame(t, "q", ir.EvalPlan{N: 3}, ir.Stats{}))
	if w.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(obs.HeaderRequestID); got != "" {
		t.Fatalf("uninstrumented node invented a request ID %q", got)
	}
}

// TestNodeQueryCacheMetrics: a node's term-resolution cache traffic is
// on its /metrics — a repeated query moves the hit series, a new one
// the miss series.
func TestNodeQueryCacheMetrics(t *testing.T) {
	h := NewNodeServer(ir.NewIndex(), &NodeConfig{
		Cache:   core.NewQueryCache(8),
		Metrics: obs.NewRegistry(),
	}).Handler()
	if w := postWire(t, h, dist.PathNodeAddBatch, addFrame(t, persist.Op{Doc: 1, Text: "melbourne champion"})); w.Code != http.StatusOK {
		t.Fatalf("add = %d: %s", w.Code, w.Body)
	}
	// The statistics pull freezes the index; the cache serves only a
	// frozen one.
	if w := get(t, h, dist.PathNodeStats); w.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", w.Code, w.Body)
	}
	series := func() (hit, miss string) {
		t.Helper()
		for _, line := range strings.Split(get(t, h, "/metrics").Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `dl_node_query_cache_total{result="hit"} `); ok {
				hit = v
			}
			if v, ok := strings.CutPrefix(line, `dl_node_query_cache_total{result="miss"} `); ok {
				miss = v
			}
		}
		return hit, miss
	}
	search := searchFrame(t, "champion", ir.EvalPlan{N: 5}, ir.Stats{DF: map[string]int{"champion": 1}, TotalDF: 2, Docs: 1})
	for i, want := range [][2]string{{"0", "1"}, {"1", "1"}, {"2", "1"}} {
		if w := postWire(t, h, dist.PathNodeSearch, search); w.Code != http.StatusOK {
			t.Fatalf("search %d = %d: %s", i, w.Code, w.Body)
		}
		if hit, miss := series(); hit != want[0] || miss != want[1] {
			t.Fatalf("after search %d: hit=%q miss=%q, want hit=%s miss=%s", i, hit, miss, want[0], want[1])
		}
	}
}

// TestNodePostingsMetrics: an exact multi-term search whose rare term
// settles the top n moves dl_node_postings_total{kind="skipped"}, and
// scored plus skipped is every admitted posting.
func TestNodePostingsMetrics(t *testing.T) {
	ix := ir.NewIndex()
	for d := 1; d <= 200; d++ {
		text := "match court ball play"
		if d%10 == 0 {
			text += " melbourne melbourne"
		}
		ix.Add(bat.OID(d), "u", text)
	}
	ix.Freeze()
	h := NewNodeServer(ix, &NodeConfig{Metrics: obs.NewRegistry()}).Handler()
	series := func() (scored, skipped string) {
		t.Helper()
		for _, line := range strings.Split(get(t, h, "/metrics").Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `dl_node_postings_total{kind="scored"} `); ok {
				scored = v
			}
			if v, ok := strings.CutPrefix(line, `dl_node_postings_total{kind="skipped"} `); ok {
				skipped = v
			}
		}
		return scored, skipped
	}
	if scored, skipped := series(); scored != "0" || skipped != "0" {
		t.Fatalf("before any search: scored=%q skipped=%q, want 0 and 0", scored, skipped)
	}
	search := searchFrame(t, "melbourne match", ir.EvalPlan{N: 5}, ix.StatsLocal())
	if w := postWire(t, h, dist.PathNodeSearch, search); w.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", w.Code, w.Body)
	}
	// melbourne's 20 postings are weighed; they settle a top 5 no
	// document holding only match can reach, so of match's 200 only
	// the 20 melbourne documents' are.
	if scored, skipped := series(); scored != "40" || skipped != "180" {
		t.Fatalf("after the search: scored=%q skipped=%q, want 40 and 180", scored, skipped)
	}
}
