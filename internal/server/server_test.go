package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// getStats GETs and decodes the coordinator's /stats.
func getStats(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	w := get(t, h, "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", w.Code, w.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// statsSeries returns the first series of the /stats metrics view
// named name whose labels include the pairs kv.
func statsSeries(t *testing.T, st StatsResponse, name string, kv ...string) obs.Series {
	t.Helper()
next:
	for _, s := range st.Metrics {
		if s.Name != name {
			continue
		}
		for i := 0; i < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		return s
	}
	t.Fatalf("/stats metrics has no %s%v", name, kv)
	return obs.Series{}
}

// statsValue is statsSeries' value, for a counter or gauge.
func statsValue(t *testing.T, st StatsResponse, name string, kv ...string) float64 {
	t.Helper()
	s := statsSeries(t, st, name, kv...)
	if s.Value == nil {
		t.Fatalf("/stats series %s%v has no value: %+v", name, kv, s)
	}
	return *s.Value
}

// --- node handler validation ---

func TestNodeHandlerValidation(t *testing.T) {
	ix := ir.NewIndex()
	h := NewNodeHandler(ix, &NodeConfig{MaxBody: 512})
	batch := addFrame(t, persist.Op{Doc: 1, Text: "a"})
	search := searchFrame(t, "a", ir.EvalPlan{N: 10}, ir.Stats{})
	cases := []struct {
		name, path string
		body       []byte
		status     int
	}{
		{"malformed add", dist.PathNodeAddBatch, []byte(`{"docs": nope} padding padding padding padding`), http.StatusBadRequest},
		{"missing doc oid", dist.PathNodeAddBatch, addFrame(t, persist.Op{URL: "u", Text: "hi"}), http.StatusBadRequest},
		{"empty batch", dist.PathNodeAddBatch, addFrame(t), http.StatusBadRequest},
		{"trailing data", dist.PathNodeAddBatch, append(append([]byte(nil), batch...), "extra"...), http.StatusBadRequest},
		{"oversized body", dist.PathNodeAddBatch, addFrame(t, persist.Op{Doc: 1, Text: strings.Repeat("x", 2048)}), http.StatusRequestEntityTooLarge},
		{"malformed search", dist.PathNodeSearch, search[:len(search)-1], http.StatusBadRequest},
		{"bit-flipped search", dist.PathNodeSearch, append(append([]byte(nil), search[:len(search)-1]...), search[len(search)-1]^1), http.StatusBadRequest},
		{"add frame on search", dist.PathNodeSearch, batch, http.StatusBadRequest},
		// The retired one-document and exact-top-N ops fail closed.
		{"retired /node/add", "/node/add", batch, http.StatusNotFound},
		{"retired /node/topn", "/node/topn", search, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if w := postWire(t, h, c.path, c.body); w.Code != c.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, c.status, w.Body)
			}
		})
	}
	if n := ix.DocCount(); n != 0 {
		t.Fatalf("refused batches applied %d documents", n)
	}
	if w := get(t, h, dist.PathNodeSearch); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET search = %d, want 405", w.Code)
	}
	// Empty queries and non-positive n mirror LocalNode: well-defined
	// empty rankings, not errors — Cluster transparency depends on
	// the node protocol never rejecting what a LocalNode accepts.
	for _, c := range []struct {
		query string
		n     int
	}{{"", 10}, {"a", 0}, {"a", -3}} {
		if w := postWire(t, h, dist.PathNodeSearch, searchFrame(t, c.query, ir.EvalPlan{N: c.n}, ir.Stats{})); w.Code != http.StatusOK {
			t.Fatalf("degenerate search %+v = %d, want 200 (%s)", c, w.Code, w.Body)
		}
	}
	if w := postJSON(t, h, dist.PathNodeStats, `{}`); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats = %d, want 405", w.Code)
	}
	if w := get(t, h, dist.PathHealthz); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", w.Code)
	}
}

// --- coordinator validation ---

func testCoordinator(t *testing.T, cfg *CoordinatorConfig) (*Coordinator, http.Handler) {
	t.Helper()
	cluster := dist.NewCluster(2, nil)
	for i, text := range []string{
		"melbourne champion trophy",
		"champion winner serve",
		"volley smash rally",
	} {
		cluster.Add(bat.OID(i+1), fmt.Sprintf("doc-%d", i+1), text)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"articles": cluster}, cfg)
	return co, co.Handler()
}

func TestCoordinatorValidation(t *testing.T) {
	co, h := testCoordinator(t, &CoordinatorConfig{MaxBody: 512})
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"malformed search", "/search", `{"query": }`, http.StatusBadRequest},
		{"missing query", "/search", `{"index":"articles","n":10}`, http.StatusBadRequest},
		{"zero n", "/search", `{"index":"articles","query":"champion","n":0}`, http.StatusBadRequest},
		{"negative n", "/search", `{"index":"articles","query":"champion","n":-1}`, http.StatusBadRequest},
		{"unknown index", "/search", `{"index":"nope","query":"champion","n":10}`, http.StatusNotFound},
		{"oversized search", "/search", `{"query":"` + strings.Repeat("q ", 1024) + `","n":1}`, http.StatusRequestEntityTooLarge},
		// The retired write endpoints fail closed: /add/stream is the
		// only way in.
		{"retired /add", "/add", `{"index":"articles","text":"hello"}`, http.StatusNotFound},
		{"retired /add/batch", "/add/batch", `{"index":"articles","docs":[{"text":"hello"}]}`, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if w := postJSON(t, h, c.path, c.body); w.Code != c.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, c.status, w.Body)
			}
		})
	}
	// A rejected write line gets its reason on its own record.
	for _, c := range []struct{ name, line, err string }{
		{"malformed add", `not json`, "malformed JSON: "},
		{"missing text", `{"index":"articles"}`, "missing text"},
		{"unknown index add", `{"index":"nope","text":"hello"}`, "unknown index: nope"},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs, sum := streamLines(t, h, c.line)
			if len(recs) != 1 || !strings.HasPrefix(recs[0].Error, c.err) || sum.Errors != 1 || sum.Committed != 0 {
				t.Fatalf("records %+v, summary %+v, want one %q error", recs, sum, c.err)
			}
		})
	}
	if n := co.indexes["articles"].DocCount(); n != 3 {
		t.Fatalf("doc count = %d, want the fixture's 3: a refused write applied", n)
	}
	if w := get(t, h, "/search"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search = %d, want 405", w.Code)
	}
}

// TestReadJSONTrailingData: after a JSON request body only whitespace
// may follow; a stray closer, a bare word or a second value is 400.
func TestReadJSONTrailingData(t *testing.T) {
	_, h := testCoordinator(t, nil)
	const body = `{"index":"articles","query":"champion","n":10}`
	for _, c := range []struct {
		name, suffix string
		status       int
	}{
		{"stray ]", "]", http.StatusBadRequest},
		{"stray }", "}", http.StatusBadRequest},
		{"bare word", "x", http.StatusBadRequest},
		{"second object", ` {"query":"winner","n":1}`, http.StatusBadRequest},
		{"newline", "\n", http.StatusOK},
		{"spaces", "  \t \r\n ", http.StatusOK},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := postJSON(t, h, "/search", body+c.suffix)
			if w.Code != c.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, c.status, w.Body)
			}
			if c.status == http.StatusBadRequest && !strings.Contains(w.Body.String(), "trailing data after JSON body") {
				t.Fatalf("body %s, want the trailing-data error", w.Body)
			}
		})
	}
}

// TestCoordinatorSearchAddStats drives the full serving loop: add
// documents, search them, read the counters back.
func TestCoordinatorSearchAddStats(t *testing.T) {
	_, h := testCoordinator(t, nil)

	// The fixture seeded oids 1..3 directly on the cluster; the
	// auto-assigner continues the dense sequence after them.
	if recs, _ := streamLines(t, h, `{"text":"seles wins melbourne","url":"doc-new"}`); len(recs) != 1 || recs[0].Doc != 4 || recs[0].Error != "" {
		t.Fatalf("add records %+v, want doc 4", recs)
	}

	w := postJSON(t, h, "/search", `{"index":"articles","query":"champion melbourne","n":10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/search = %d: %s", w.Code, w.Body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Complete || len(sr.Results) == 0 {
		t.Fatalf("search response %+v", sr)
	}
	for i := 1; i < len(sr.Results); i++ {
		if sr.Results[i].Score > sr.Results[i-1].Score {
			t.Fatalf("ranking out of order: %+v", sr.Results)
		}
	}

	// Index name may be omitted when a single index is served.
	if w = postJSON(t, h, "/search", `{"query":"champion","n":5}`); w.Code != http.StatusOK {
		t.Fatalf("nameless /search = %d: %s", w.Code, w.Body)
	}

	st := getStats(t, h)
	search := statsValue(t, st, "dl_coordinator_requests_total", "op", "search")
	add := statsValue(t, st, "dl_coordinator_requests_total", "op", "add")
	if search != 2 || add != 1 {
		t.Fatalf("request counters = search %v, add %v, want 2, 1", search, add)
	}
	ix, ok := st.Indexes["articles"]
	if !ok || ix.Docs != 4 || ix.Nodes != 2 {
		t.Fatalf("index stats = %+v", st.Indexes)
	}
}

// TestCoordinatorQueryCacheStats: the cache of an in-process cluster,
// registered under its index, surfaces in /stats, moving as cached
// local nodes serve repeated queries.
func TestCoordinatorQueryCacheStats(t *testing.T) {
	qc := core.NewQueryCache(32)
	ix := ir.NewIndex()
	ln := dist.NewLocalNode(ix)
	ln.SetResolver(qc.Resolve)
	cluster := dist.NewClusterOf([]dist.Node{ln}, nil)
	cluster.Add(1, "u", "melbourne champion trophy")
	reg := obs.NewRegistry()
	InstrumentQueryCache(reg, qc, "index", "a")
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, &CoordinatorConfig{Metrics: reg})
	h := co.Handler()
	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/search", `{"query":"champion","n":5}`); w.Code != http.StatusOK {
			t.Fatalf("/search = %d: %s", w.Code, w.Body)
		}
	}
	st := getStats(t, h)
	hits := statsValue(t, st, "dl_node_query_cache_total", "index", "a", "result", "hit")
	misses := statsValue(t, st, "dl_node_query_cache_total", "index", "a", "result", "miss")
	entries := statsValue(t, st, "dl_node_query_cache_entries", "index", "a")
	if hits == 0 || misses == 0 || entries == 0 {
		t.Fatalf("cache series = hits %v, misses %v, entries %v, want all > 0", hits, misses, entries)
	}
}

// TestCoordinatorOverRemoteNodes: the full network stack — coordinator
// → RemoteNode → node server — returns the single-index ranking.
func TestCoordinatorOverRemoteNodes(t *testing.T) {
	var nodes []dist.Node
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), nil))
		t.Cleanup(srv.Close)
		nodes = append(nodes, dist.NewRemoteNode(srv.URL, srv.Client()))
	}
	cluster := dist.NewClusterOf(nodes, &dist.Options{NodeTimeout: 5 * time.Second})
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()

	single := ir.NewIndex()
	texts := []string{"melbourne champion", "champion winner serve", "volley smash", "trophy champion rally"}
	var body strings.Builder
	for i, text := range texts {
		single.Add(bat.OID(i+1), "u", text)
		fmt.Fprintf(&body, "{\"text\":%q,\"url\":\"u\"}\n", text)
	}
	if _, sum := streamLines(t, h, body.String()); sum.Committed != len(texts) {
		t.Fatalf("stream summary = %+v", sum)
	}
	w := postJSON(t, h, "/search", `{"query":"champion","n":10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/search = %d: %s", w.Code, w.Body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	want := single.TopN("champion", 10)
	if len(sr.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(sr.Results), len(want))
	}
	for i, r := range want {
		if sr.Results[i].Doc != uint64(r.Doc) || sr.Results[i].Score != r.Score {
			t.Fatalf("rank %d = %+v, want %+v", i, sr.Results[i], r)
		}
	}
}

// TestCoordinatorRestartContinuesOIDs: a new coordinator in front of
// a cluster that already holds documents continues the oid sequence
// instead of reusing oid 1 and silently merging documents.
func TestCoordinatorRestartContinuesOIDs(t *testing.T) {
	cluster := dist.NewCluster(2, nil)
	first := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := first.Handler()
	for i := 0; i < 3; i++ {
		if _, sum := streamLines(t, h, `{"text":"melbourne champion"}`); sum.Committed != 1 {
			t.Fatalf("add %d summary = %+v", i, sum)
		}
	}
	// A sparse explicit oid leaves a gap in the sequence.
	if _, sum := streamLines(t, h, `{"doc":10,"text":"serve rally"}`); sum.Committed != 1 {
		t.Fatalf("explicit add summary = %+v", sum)
	}
	// "Restart": a fresh coordinator over the same still-loaded
	// cluster must continue after the highest live oid, not the count.
	restarted := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	if recs, _ := streamLines(t, restarted.Handler(), `{"text":"trophy winner"}`); len(recs) != 1 || recs[0].Doc != 11 || recs[0].Error != "" {
		t.Fatalf("post-restart add records %+v, want doc 11", recs)
	}
	if got := cluster.DocCount(); got != 5 {
		t.Fatalf("doc count = %d, want 5 distinct documents", got)
	}
}

// TestCoordinatorConcurrentAddSearch: the serving layer may index and
// query local nodes at the same time (the race detector guards the
// LocalNode locking here).
func TestCoordinatorConcurrentAddSearch(t *testing.T) {
	cluster := dist.NewCluster(2, nil)
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					w := postJSON(t, h, "/add/stream", `{"text":"melbourne champion trophy"}`)
					if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"committed":1,"degraded":0,"failed":0,"errors":0`) {
						t.Errorf("/add/stream = %d: %s", w.Code, w.Body)
						return
					}
				} else {
					w := postJSON(t, h, "/search", `{"query":"champion","n":5}`)
					if w.Code != http.StatusOK {
						t.Errorf("/search = %d: %s", w.Code, w.Body)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrencyLimit: requests beyond the bound are shed with 503
// instead of queueing.
func TestConcurrencyLimit(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	sem := newSemaphore(1)
	h := sem.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	<-entered // first request holds the only slot
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503", w.Code)
	}
	if sem.Shed() != 1 || sem.Limit() != 1 || sem.InFlight() != 1 {
		t.Fatalf("semaphore pressure shed=%d limit=%d inflight=%d, want 1/1/1",
			sem.Shed(), sem.Limit(), sem.InFlight())
	}
	close(release)
	wg.Wait()
}

// TestRunGracefulShutdown: Run serves until the context is cancelled,
// then drains and returns nil.
func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, "127.0.0.1:0", http.NewServeMux(), time.Second)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not shut down")
	}
}

// TestCoordinatorBudgetedSearch: the /search plan knobs surface the
// fragment cut-off end to end — body fields and the ?frag= query
// parameter — and the response carries the cluster-wide quality.
func TestCoordinatorBudgetedSearch(t *testing.T) {
	cluster := dist.NewCluster(2, nil)
	for i := 0; i < 60; i++ {
		text := "match play game set court ball"
		if i%10 == 0 {
			text = "seles melbourne trophy"
		}
		cluster.Add(bat.OID(i+1), "u", text)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()

	// Exact search: quality reports value 1.
	w := postJSON(t, h, "/search", `{"query":"seles match","n":10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/search = %d: %s", w.Code, w.Body)
	}
	var exact SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Quality.Value != 1.0 {
		t.Fatalf("exact quality = %+v", exact.Quality)
	}

	// Budgeted via body fields: quality drops below 1 and the ranking
	// still answers.
	w = postJSON(t, h, "/search", `{"query":"seles match ball","n":10,"frags":8,"budget":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("budgeted /search = %d: %s", w.Code, w.Body)
	}
	var budgeted SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &budgeted); err != nil {
		t.Fatal(err)
	}
	if v := budgeted.Quality.Value; v >= 1.0 || v <= 0 {
		t.Fatalf("budgeted quality = %+v, want in (0, 1)", budgeted.Quality)
	}
	if len(budgeted.Results) == 0 || !budgeted.Complete {
		t.Fatalf("budgeted response = %+v", budgeted)
	}

	// The ?frag= query parameter is the curl-side spelling of the
	// budget and overrides the body.
	w = postJSON(t, h, "/search?frag=1&frags=8", `{"query":"seles match ball","n":10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("?frag= /search = %d: %s", w.Code, w.Body)
	}
	var viaParam SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &viaParam); err != nil {
		t.Fatal(err)
	}
	if viaParam.Quality != budgeted.Quality {
		t.Fatalf("?frag= quality %+v != body-budget quality %+v", viaParam.Quality, budgeted.Quality)
	}

	// An explicit body budget of 0 overrides a configured default
	// budget back to the exact search.
	co2 := NewCoordinator(map[string]*dist.Cluster{"a": cluster},
		&CoordinatorConfig{Frags: 8, FragBudget: 1})
	h2 := co2.Handler()
	w = postJSON(t, h2, "/search", `{"query":"seles match ball","n":10,"budget":0}`)
	var exactOverride SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &exactOverride); err != nil {
		t.Fatal(err)
	}
	if exactOverride.Quality.Value != 1.0 {
		t.Fatalf("body budget:0 did not force exact: %+v", exactOverride.Quality)
	}
	w = postJSON(t, h2, "/search", `{"query":"seles match ball","n":10}`)
	var defaulted SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &defaulted); err != nil {
		t.Fatal(err)
	}
	if defaulted.Quality.Value >= 1.0 {
		t.Fatalf("configured default budget not applied: %+v", defaulted.Quality)
	}

	// A quality floor re-admits fragments.
	w = postJSON(t, h, "/search", `{"query":"seles match ball","n":10,"frags":8,"budget":1,"min_quality":1.0}`)
	var floored SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &floored); err != nil {
		t.Fatal(err)
	}
	if floored.Quality.Value != 1.0 {
		t.Fatalf("floored quality = %+v", floored.Quality)
	}

	// Malformed plan parameters are 4xx — query params and the
	// equivalent body fields alike.
	for _, path := range []string{"/search?frag=x", "/search?frags=-2", "/search?min_quality=2"} {
		if w := postJSON(t, h, path, `{"query":"seles","n":5}`); w.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", path, w.Code)
		}
	}
	for _, body := range []string{
		`{"query":"seles","n":5,"min_quality":2}`,
		`{"query":"seles","n":5,"budget":-1}`,
		`{"query":"seles","n":5,"frags":-3}`,
	} {
		if w := postJSON(t, h, "/search", body); w.Code != http.StatusBadRequest {
			t.Fatalf("body %s = %d, want 400", body, w.Code)
		}
	}
}

// TestCoordinatorAddBatch: one stream indexes many documents,
// auto-assigning oids in line order and mixing with explicit oids; the
// add counter moves by the number of documents committed.
func TestCoordinatorAddBatch(t *testing.T) {
	cluster := dist.NewCluster(2, nil)
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()
	recs, sum := streamLines(t, h, `{"text":"melbourne champion trophy"}
{"doc":10,"text":"seles wins"}
{"text":"volley smash rally"}`)
	if sum.Committed != 3 || len(recs) != 3 {
		t.Fatalf("records %+v, summary %+v", recs, sum)
	}
	for i, want := range []uint64{1, 10, 11} {
		if recs[i].Line != i+1 || recs[i].Doc != want {
			t.Fatalf("assigned oids = %+v, want [1 10 11]", recs)
		}
	}
	if got := cluster.DocCount(); got != 3 {
		t.Fatalf("doc count = %d, want 3", got)
	}
	// The documents are searchable.
	w := postJSON(t, h, "/search", `{"query":"champion","n":5}`)
	var sr SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || len(sr.Results) == 0 {
		t.Fatalf("post-batch search = %s: %v", w.Body, err)
	}
	// An empty stream applies nothing; a line without text is rejected
	// on its own record while its neighbour commits.
	if recs, sum := streamLines(t, h, ``); len(recs) != 0 || sum.Lines != 0 || sum.Committed != 0 {
		t.Fatalf("empty stream: records %+v, summary %+v", recs, sum)
	}
	if _, sum := streamLines(t, h, `{"text":"a"}`+"\n"+`{"url":"u"}`); sum.Committed != 1 || sum.Errors != 1 {
		t.Fatalf("missing text summary = %+v", sum)
	}
	if add := statsValue(t, getStats(t, h), "dl_coordinator_requests_total", "op", "add"); add != 4 {
		t.Fatalf("add counter = %v, want 4 (every committed line)", add)
	}
}

// TestNodeBatchAndSearchEndpoints: the node wire protocol's batch add
// and plan search endpoints answer like a LocalNode.
func TestNodeBatchAndSearchEndpoints(t *testing.T) {
	h := NewNodeHandler(ir.NewIndex(), nil)
	w := postWire(t, h, dist.PathNodeAddBatch, addFrame(t,
		persist.Op{Doc: 1, Text: "seles melbourne"}, persist.Op{Doc: 2, Text: "match ball court"}))
	if w.Code != http.StatusOK {
		t.Fatalf("node batch = %d: %s", w.Code, w.Body)
	}
	if err := persist.DecodeAck(w.Body.Bytes()); err != nil {
		t.Fatalf("node batch answer: %v", err)
	}
	// Plan search over the node protocol: budgeted plans report quality.
	stats := ir.Stats{DF: map[string]int{"sele": 1, "match": 1}, TotalDF: 5, Docs: 2}
	w = postWire(t, h, dist.PathNodeSearch, searchFrame(t, "seles match", ir.EvalPlan{N: 5, Frags: 4, Budget: 4}, stats))
	if w.Code != http.StatusOK {
		t.Fatalf("node search = %d: %s", w.Code, w.Body)
	}
	rs, q, err := persist.DecodeSearchResponse(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || q.Value() != 1.0 {
		t.Fatalf("node search response = %+v %+v", rs, q)
	}
}

// --- durability & replication ---

// TestNodeSnapshotEndpoint: POST /node/snapshot persists the fragment,
// /node/load reports the snapshot time, and a "restarted" node built
// from the snapshot file serves byte-identical rankings.
func TestNodeSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	ix := ir.NewIndex()
	ns := NewNodeServer(ix, &NodeConfig{DataDir: dir})
	h := ns.Handler()
	texts := []string{"melbourne champion trophy", "champion winner serve", "volley smash rally"}
	for i, text := range texts {
		w := postWire(t, h, dist.PathNodeAddBatch, addFrame(t, persist.Op{Doc: bat.OID(i + 1), Text: text}))
		if w.Code != http.StatusOK {
			t.Fatalf("add = %d: %s", w.Code, w.Body)
		}
	}
	w := postJSON(t, h, dist.PathNodeSnapshot, `{}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/node/snapshot = %d: %s", w.Code, w.Body)
	}
	var snap dist.SnapshotResponse
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Docs != len(texts) || snap.Bytes == 0 || snap.Unix == 0 {
		t.Fatalf("snapshot response = %+v", snap)
	}
	var load dist.LoadResponse
	if err := json.Unmarshal(get(t, h, dist.PathNodeLoad).Body.Bytes(), &load); err != nil {
		t.Fatal(err)
	}
	if load.SnapshotUnix != snap.Unix {
		t.Fatalf("load.snapshot_unix = %d, want %d", load.SnapshotUnix, snap.Unix)
	}

	// "Restart": rebuild the node from the snapshot file alone.
	restored, err := persist.LoadIndex(snap.Path)
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewNodeHandler(restored, nil)
	body := searchFrame(t, "champion", ir.EvalPlan{N: 10}, ir.Stats{DF: map[string]int{"champion": 2}, TotalDF: 9, Docs: 3})
	before := postWire(t, h, dist.PathNodeSearch, body)
	after := postWire(t, h2, dist.PathNodeSearch, body)
	if before.Code != http.StatusOK || after.Code != http.StatusOK {
		t.Fatalf("search = %d / %d", before.Code, after.Code)
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("restored ranking differs:\n pre: %x\npost: %x", before.Body, after.Body)
	}
}

// TestNodeSnapshotWithoutDataDir: a node running without durability
// answers 412 to POST (nowhere to persist) but still STREAMS its live
// state to GET — the resync transfer needs no data dir.
func TestNodeSnapshotWithoutDataDir(t *testing.T) {
	h := NewNodeHandler(ir.NewIndex(), nil)
	if w := postJSON(t, h, dist.PathNodeSnapshot, `{}`); w.Code != http.StatusPreconditionFailed {
		t.Fatalf("/node/snapshot = %d, want 412", w.Code)
	}
	w := get(t, h, dist.PathNodeSnapshot)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /node/snapshot = %d, want 200", w.Code)
	}
	if st, err := persist.Load(w.Body); err != nil || len(st.Docs) != 0 {
		t.Fatalf("streamed snapshot unusable: %v", err)
	}
}

// TestCoordinatorReplicaStats: /stats reports every replica of every
// partition — reachability, routing health, snapshot age — plus the
// cluster's cumulative failover/dropped counters; /search surfaces the
// failovers a degraded query needed while staying complete.
func TestCoordinatorReplicaStats(t *testing.T) {
	dir := t.TempDir()
	servers := make([]*httptest.Server, 2)
	nodes := make([]dist.Node, 2)
	for i := range servers {
		cfg := &NodeConfig{}
		if i == 0 {
			cfg.DataDir = dir
		}
		srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), cfg))
		t.Cleanup(srv.Close)
		servers[i] = srv
		nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
	}
	cluster, err := dist.NewReplicatedCluster(nodes, 2, &dist.Options{NodeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()
	if _, sum := streamLines(t, h, `{"text":"melbourne champion trophy"}
{"text":"champion winner serve"}`); sum.Committed != 2 {
		t.Fatalf("stream summary = %+v", sum)
	}
	// Snapshot replica 0 so its age surfaces.
	if _, err := dist.NewRemoteNode(servers[0].URL, servers[0].Client()).Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := getStats(t, h)
	ixst := st.Indexes["a"]
	if ixst.Nodes != 1 || len(ixst.Groups) != 1 || len(ixst.Groups[0].Replicas) != 2 {
		t.Fatalf("index stats shape = %+v", ixst)
	}
	r0, r1 := ixst.Groups[0].Replicas[0], ixst.Groups[0].Replicas[1]
	if !r0.Reachable || !r1.Reachable || !r0.Healthy || !r1.Healthy {
		t.Fatalf("healthy replicas reported degraded: %+v %+v", r0, r1)
	}
	if r0.Docs != 2 || r1.Docs != 2 {
		t.Fatalf("replica docs = %d/%d, want 2/2 (write fan-out)", r0.Docs, r1.Docs)
	}
	if r0.SnapshotUnix == 0 || r0.SnapshotAgeSeconds < 0 {
		t.Fatalf("snapshotted replica reports no snapshot: %+v", r0)
	}
	if r1.SnapshotUnix != 0 {
		t.Fatalf("never-snapshotted replica reports one: %+v", r1)
	}

	// Kill the primary: /search stays complete but reports failovers,
	// and /stats shows the dead replica plus moved counters.
	servers[0].Close()
	cluster.InvalidateStats()
	w := postJSON(t, h, "/search", `{"query":"champion","n":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("post-kill /search = %d: %s", w.Code, w.Body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Complete || len(sr.Dropped) != 0 || len(sr.Results) == 0 {
		t.Fatalf("post-kill search degraded: %+v", sr)
	}
	st = getStats(t, h)
	ixst = st.Indexes["a"]
	if statsValue(t, st, "dl_cluster_failovers_total", "index", "a") == 0 {
		t.Fatalf("failover counter = 0 after killing the primary: %+v", st.Metrics)
	}
	if dropped := statsValue(t, st, "dl_cluster_dropped_nodes_total", "index", "a"); dropped != 0 {
		t.Fatalf("dropped counter = %v, moved with a live replica", dropped)
	}
	r0 = ixst.Groups[0].Replicas[0]
	if r0.Reachable || r0.Healthy {
		t.Fatalf("dead replica reported fine: %+v", r0)
	}
	if ixst.Docs != 2 {
		t.Fatalf("docs = %d, want 2 (served by the survivor)", ixst.Docs)
	}
}

// TestCoordinatorAddBatchOutcomes: partitions commit independently —
// a dead partition's lines come back with committed 0 and an error
// (retry-safe) while the healthy partition's lines commit, and every
// record still carries its assigned oid.
func TestCoordinatorAddBatchOutcomes(t *testing.T) {
	servers := make([]*httptest.Server, 2)
	nodes := make([]dist.Node, 2)
	for i := range servers {
		srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), nil))
		t.Cleanup(srv.Close)
		servers[i] = srv
		nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
	}
	cluster := dist.NewClusterOf(nodes, &dist.Options{NodeTimeout: 5 * time.Second})
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()

	// Healthy stream: every line committed by its partition's replica.
	recs, sum := streamLines(t, h, `{"doc":1,"text":"melbourne champion"}
{"doc":2,"text":"winner serve"}
{"doc":3,"text":"volley smash"}`)
	if sum.Committed != 3 || sum.Failed != 0 || sum.Degraded != 0 || len(recs) != 3 {
		t.Fatalf("healthy stream: records %+v, summary %+v", recs, sum)
	}
	for _, r := range recs {
		if r.Committed != r.Replicas || r.Error != "" {
			t.Fatalf("healthy line outcome = %+v", r)
		}
	}

	// Warm the global statistics while both partitions are alive, so
	// post-kill searches can degrade to the stale-stats path instead of
	// failing outright on a never-aggregated cluster.
	if w := postJSON(t, h, "/search", `{"query":"champion","n":5}`); w.Code != http.StatusOK {
		t.Fatalf("warm /search = %d: %s", w.Code, w.Body)
	}

	// Kill partition 1's only node: its line fails, partition 0's
	// commits. Round-robin: oid 11 -> partition 0, oid 12 -> partition 1.
	servers[1].Close()
	recs, sum = streamLines(t, h, `{"doc":11,"text":"trophy rally"}
{"doc":12,"text":"ace court"}`)
	if sum.Committed != 1 || sum.Failed != 1 || sum.Degraded != 0 || len(recs) != 2 {
		t.Fatalf("partial stream: records %+v, summary %+v", recs, sum)
	}
	if r := recs[0]; r.Doc != 11 || r.Committed != 1 || r.Error != "" {
		t.Fatalf("alive partition outcome = %+v", r)
	}
	if r := recs[1]; r.Doc != 12 || r.Committed != 0 || r.Replicas != 1 || r.Degraded || r.Error == "" {
		t.Fatalf("dead partition outcome = %+v", r)
	}
	// Searches keep answering over the surviving partition, flagged as
	// degraded: stale statistics (re-aggregation needs the dead node)
	// and the dead partition dropped.
	w := postJSON(t, h, "/search", `{"query":"champion","n":10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("post-partial-stream /search = %d: %s", w.Code, w.Body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Complete || !sr.StaleStats || len(sr.Dropped) != 1 || sr.Dropped[0] != 1 {
		t.Fatalf("post-partial-stream search not flagged degraded: %+v", sr)
	}
	if len(sr.Results) == 0 {
		t.Fatalf("no results from the surviving partition: %+v", sr)
	}
}

// TestCoordinatorAddPartialCommit: a line written to a degraded replica
// group must not masquerade as "not indexed": its record reports how
// many replicas committed, the document is searchable, and the counters
// treat it as added but the stream as erroneous — while a line no
// replica committed is neither.
func TestCoordinatorAddPartialCommit(t *testing.T) {
	servers := make([]*httptest.Server, 2)
	nodes := make([]dist.Node, 2)
	for i := range servers {
		srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), nil))
		t.Cleanup(srv.Close)
		servers[i] = srv
		nodes[i] = dist.NewRemoteNode(srv.URL, srv.Client())
	}
	cluster, err := dist.NewReplicatedCluster(nodes, 2, &dist.Options{NodeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, &CoordinatorConfig{Metrics: reg})
	h := co.Handler()
	counters := func(wantAdds, wantErrs uint64) {
		t.Helper()
		st := getStats(t, h)
		add := statsValue(t, st, "dl_coordinator_requests_total", "op", "add")
		errs := statsValue(t, st, "dl_coordinator_errors_total")
		if add != float64(wantAdds) || errs != float64(wantErrs) {
			t.Fatalf("/stats requests = add %v, errors %v, want add %d, errors %d", add, errs, wantAdds, wantErrs)
		}
		met := get(t, h, "/metrics").Body.String()
		for _, want := range []string{
			fmt.Sprintf("dl_coordinator_requests_total{op=\"add\"} %d\n", wantAdds),
			fmt.Sprintf("dl_coordinator_errors_total %d\n", wantErrs),
		} {
			if !strings.Contains(met, want) {
				t.Fatalf("/metrics lacks %q", want)
			}
		}
	}

	recs, _ := streamLines(t, h, `{"doc":1,"text":"melbourne champion"}`)
	if len(recs) != 1 || recs[0].Committed != 2 || recs[0].Replicas != 2 || recs[0].Degraded || recs[0].Error != "" {
		t.Fatalf("healthy add outcome = %+v", recs)
	}
	counters(1, 0)

	// One replica dead: the record says one replica HAS the document
	// (degraded), so the client need not re-post it.
	servers[1].Close()
	recs, sum := streamLines(t, h, `{"doc":2,"text":"winner serve"}`)
	if len(recs) != 1 || recs[0].Committed != 1 || recs[0].Replicas != 2 || !recs[0].Degraded || recs[0].Error == "" {
		t.Fatalf("degraded add outcome = %+v", recs)
	}
	if sum.Degraded != 1 || sum.Committed != 0 || sum.Failed != 0 {
		t.Fatalf("degraded stream summary = %+v", sum)
	}
	counters(2, 1)
	// The degraded document is searchable via the survivor.
	w := postJSON(t, h, "/search", `{"query":"winner","n":5}`)
	var sr SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].Doc != 2 {
		t.Fatalf("degraded doc not searchable: %+v", sr)
	}

	// Whole group dead: committed 0 — retry-safe (connection-level).
	servers[0].Close()
	recs, sum = streamLines(t, h, `{"doc":3,"text":"volley smash"}`)
	if len(recs) != 1 || recs[0].Committed != 0 || recs[0].Degraded || recs[0].Error == "" {
		t.Fatalf("dead-group add outcome = %+v", recs)
	}
	if sum.Failed != 1 {
		t.Fatalf("dead-group stream summary = %+v", sum)
	}
	counters(2, 2)
}

// --- self-healing: snapshot streaming, restore, anti-entropy ---

// streamState GETs /node/snapshot and decodes the binary stream.
func streamState(t *testing.T, h http.Handler) *ir.IndexState {
	t.Helper()
	w := get(t, h, dist.PathNodeSnapshot)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /node/snapshot = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content type = %q", ct)
	}
	st, err := persist.Load(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestNodeSnapshotStreamAndRestore: the resync transfer pair — the
// state streamed by GET /node/snapshot installs via POST /node/restore
// on another node, which then serves byte-identical rankings; the
// restored node's /node/load reports the source's content checksum.
func TestNodeSnapshotStreamAndRestore(t *testing.T) {
	source := ir.NewIndex()
	for i, text := range []string{"melbourne champion trophy", "champion winner serve", "volley smash rally"} {
		source.Add(bat.OID(i+1), "u", text)
	}
	hSrc := NewNodeHandler(source, nil)
	st := streamState(t, hSrc)
	if len(st.Docs) != 3 {
		t.Fatalf("streamed %d docs, want 3", len(st.Docs))
	}

	hDst := NewNodeHandler(ir.NewIndex(), nil)
	var buf bytes.Buffer
	if err := persist.Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, dist.PathNodeRestore, &buf)
	req.Header.Set("Content-Type", "application/octet-stream")
	w := httptest.NewRecorder()
	hDst.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /node/restore = %d: %s", w.Code, w.Body)
	}
	var rr dist.RestoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Docs != 3 || rr.Checksum == "" || rr.Checksum != st.Checksum() {
		t.Fatalf("restore response = %+v", rr)
	}
	var lr dist.LoadResponse
	if err := json.Unmarshal(get(t, hDst, dist.PathNodeLoad+"?fresh=1").Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Docs != 3 || lr.Checksum != rr.Checksum {
		t.Fatalf("restored load = %+v, want checksum %s", lr, rr.Checksum)
	}
	// The plain probe stays cheap: it serves the now-cached digest.
	if err := json.Unmarshal(get(t, hDst, dist.PathNodeLoad).Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Checksum != rr.Checksum {
		t.Fatalf("cached load checksum = %q, want %s", lr.Checksum, rr.Checksum)
	}
	body := searchFrame(t, "champion", ir.EvalPlan{N: 10}, ir.Stats{DF: map[string]int{"champion": 2}, TotalDF: 9, Docs: 3})
	before := postWire(t, hSrc, dist.PathNodeSearch, body)
	after := postWire(t, hDst, dist.PathNodeSearch, body)
	if before.Code != http.StatusOK || !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("restored ranking differs:\n src: %x\n dst: %x", before.Body, after.Body)
	}
}

// TestNodeRestoreFailsClosed: corrupt bodies are rejected and the node
// keeps serving its previous fragment.
func TestNodeRestoreFailsClosed(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "champion trophy")
	h := NewNodeHandler(ix, nil)
	for name, body := range map[string]string{
		"garbage":   "not a snapshot",
		"truncated": "DLSNAP\x00\x01",
		"empty":     "",
	} {
		req := httptest.NewRequest(http.MethodPost, dist.PathNodeRestore, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s restore = %d, want 400: %s", name, w.Code, w.Body)
		}
	}
	if w := get(t, h, dist.PathNodeRestore); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /node/restore = %d, want 405", w.Code)
	}
	// The fragment survived every rejected restore.
	var lr dist.LoadResponse
	if err := json.Unmarshal(get(t, h, dist.PathNodeLoad).Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Docs != 1 {
		t.Fatalf("fragment lost after rejected restores: %+v", lr)
	}
}

// TestCoordinatorAntiEntropyEndpoint: POST /anti-entropy runs one pass
// — detection and repair — over a replicated cluster whose replica was
// wiped behind the coordinator's back, and /stats surfaces the
// checksums, resync age and the new counters.
func TestCoordinatorAntiEntropyEndpoint(t *testing.T) {
	servers := make([]*httptest.Server, 2)
	nodes := make([]dist.Node, 2)
	for i := range servers {
		servers[i] = httptest.NewServer(NewNodeHandler(ir.NewIndex(), nil))
		t.Cleanup(servers[i].Close)
		nodes[i] = dist.NewRemoteNode(servers[i].URL, servers[i].Client())
	}
	cluster, err := dist.NewReplicatedCluster(nodes, 2, &dist.Options{NodeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"a": cluster}, nil)
	h := co.Handler()
	if _, sum := streamLines(t, h, `{"text":"melbourne champion trophy"}
{"text":"champion winner serve"}`); sum.Committed != 2 {
		t.Fatalf("stream summary = %+v", sum)
	}
	pre := postJSON(t, h, "/search", `{"query":"champion","n":10}`)
	// Wipe replica 1 directly against its node server.
	if err := nodes[1].(*dist.RemoteNode).RestoreState(context.Background(), ir.NewIndex().ExportState()); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/anti-entropy?repair=bogus", ``); w.Code != http.StatusBadRequest {
		t.Fatalf("bad repair param = %d", w.Code)
	}
	if w := postJSON(t, h, "/anti-entropy?index=nope", ``); w.Code != http.StatusNotFound {
		t.Fatalf("unknown index = %d", w.Code)
	}
	w := postJSON(t, h, "/anti-entropy", ``)
	if w.Code != http.StatusOK {
		t.Fatalf("/anti-entropy = %d: %s", w.Code, w.Body)
	}
	var ae AntiEntropyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ae); err != nil {
		t.Fatal(err)
	}
	pass := ae.Indexes["a"]
	if pass.Detected != 1 || pass.Resynced != 1 {
		t.Fatalf("anti-entropy pass = %+v", pass)
	}
	// A second pass is a no-op (and warms the healed replica's digest
	// cache, so the cheap /stats probe below reports its checksum).
	if err := json.Unmarshal(postJSON(t, h, "/anti-entropy", ``).Body.Bytes(), &ae); err != nil {
		t.Fatal(err)
	}
	if p := ae.Indexes["a"]; p.Detected != 0 || p.Resynced != 0 || p.Cleared != 0 {
		t.Fatalf("second pass not a no-op: %+v", p)
	}
	// Kill the intact replica: the healed one must serve the identical
	// ranking, complete.
	servers[0].Close()
	cluster.InvalidateStats()
	post := postJSON(t, h, "/search", `{"query":"champion","n":10}`)
	var preSR, postSR SearchResponse
	if err := json.Unmarshal(pre.Body.Bytes(), &preSR); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(post.Body.Bytes(), &postSR); err != nil {
		t.Fatal(err)
	}
	if !postSR.Complete {
		t.Fatalf("post-heal search degraded: %+v", postSR)
	}
	if len(postSR.Results) != len(preSR.Results) {
		t.Fatalf("post-heal results = %d, want %d", len(postSR.Results), len(preSR.Results))
	}
	for i := range preSR.Results {
		if postSR.Results[i] != preSR.Results[i] {
			t.Fatalf("post-heal rank %d = %+v, want %+v", i, postSR.Results[i], preSR.Results[i])
		}
	}
	st := getStats(t, h)
	resyncs := statsValue(t, st, "dl_cluster_resyncs_total", "index", "a", "kind", "delta") +
		statsValue(t, st, "dl_cluster_resyncs_total", "index", "a", "kind", "full")
	if detected := statsValue(t, st, "dl_cluster_divergence_detected_total", "index", "a"); resyncs != 1 || detected != 1 {
		t.Fatalf("stats counters = resyncs %v, divergence detected %v, want 1, 1", resyncs, detected)
	}
	healed := st.Indexes["a"].Groups[0].Replicas[1]
	if healed.Checksum == "" || healed.ResyncUnix == 0 || healed.ResyncAgeSeconds < 0 {
		t.Fatalf("healed replica stats = %+v", healed)
	}
	if healed.Diverged || !healed.Healthy {
		t.Fatalf("healed replica still quarantined: %+v", healed)
	}
}
