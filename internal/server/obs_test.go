package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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
// servers with full instrumentation: the coordinator's request ID must
// be echoed in the /search response AND appear in the node-side
// slow-query log (propagated via X-DL-Request), /metrics must serve
// Prometheus text on both roles, and /stats must report latency
// quantiles and semaphore pressure.
func TestObservabilityEndToEnd(t *testing.T) {
	var nodeSlow syncBuffer
	nodeReg := obs.NewRegistry()
	var nodeServers []*httptest.Server
	var nodes []dist.Node
	for i := 0; i < 2; i++ {
		ix := ir.NewIndex()
		h := NewNodeHandler(ix, &NodeConfig{
			Metrics:   nodeReg,
			SlowQuery: obs.NewSlowQueryLog(&nodeSlow, time.Nanosecond),
		})
		ts := httptest.NewServer(h)
		defer ts.Close()
		nodeServers = append(nodeServers, ts)
		nodes = append(nodes, dist.NewRemoteNode(ts.URL, nil))
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
	// — that is the trace join the whole feature is for.
	for _, log := range []struct{ role, text string }{
		{"coordinator", coSlow.String()},
		{"node", nodeSlow.String()},
	} {
		if !strings.Contains(log.text, reqID) {
			t.Fatalf("%s slow-query log does not carry request ID %s:\n%s", log.role, reqID, log.text)
		}
		var rec obs.SlowQueryRecord
		line := log.text[:strings.IndexByte(log.text, '\n')]
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s slow-query line is not JSON: %v\n%s", log.role, err, line)
		}
		if rec.Role != log.role || len(rec.Spans) == 0 {
			t.Fatalf("%s slow-query record = %+v, want role %q with spans", log.role, rec, log.role)
		}
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
	// Node /metrics: per-endpoint counters and scoring histogram fed.
	nmet := get(nodeServers[0].URL + "/metrics")
	for _, want := range []string{
		`dl_node_requests_total{path="/node/search"}`,
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

	// /stats: latency/quality quantiles per index plus semaphore
	// pressure.
	var st StatsResponse
	if err := json.Unmarshal([]byte(get(cot.URL+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	lib := st.Indexes["lib"]
	if lib.LatencyMS == nil || lib.LatencyMS.Count != searches || lib.LatencyMS.P95 <= 0 {
		t.Fatalf("stats latency quantiles = %+v, want count %d with positive p95", lib.LatencyMS, searches)
	}
	if lib.Quality == nil || lib.Quality.Count != searches {
		t.Fatalf("stats quality quantiles = %+v, want count %d", lib.Quality, searches)
	}
	if st.Concurrency == nil || st.Concurrency.Limit != DefaultMaxConcurrent {
		t.Fatalf("stats concurrency = %+v, want limit %d", st.Concurrency, DefaultMaxConcurrent)
	}
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
