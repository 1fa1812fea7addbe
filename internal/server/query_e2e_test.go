package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlsearch/internal/core"
	"dlsearch/internal/crawler"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/query"
	"dlsearch/internal/site"
	"dlsearch/internal/webspace"
)

// TestQueryClusterMatchesSingleProcess is the tentpole acceptance
// test: the same corpus, once populated into a single-process
// core.Engine and once streamed as NDJSON through POST /add/stream
// into an HTTP cluster (2 partitions per full-text index, content
// living only on the nodes), must answer the paper's Figure 13 query
// byte-identically through POST /query.
//
// The stream is deliberately larger than the coordinator's request
// body cap — the whole point of streaming ingest.
func TestQueryClusterMatchesSingleProcess(t *testing.T) {
	// Reference: the fully populated single-process engine.
	ref, s, _, err := core.BuildAusOpen(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(core.Figure13Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference answer is empty")
	}

	// Cluster side: a cold engine over the same schema. Media objects
	// (video/image) are analyzed locally — binary media does not travel
	// over the ingest stream — but every conceptual document and every
	// hypertext body arrives via NDJSON.
	eng, err := core.NewAusOpen(s)
	if err != nil {
		t.Fatal(err)
	}
	c := crawler.New(eng.Schema, s.Fetch)
	res, err := c.Crawl(s.BaseURL + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	var media crawler.Result
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	for _, doc := range res.Documents {
		if err := enc.Encode(StreamLine{Webspace: doc}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range res.Media {
		if m.Type != webspace.Hypertext {
			media.Media = append(media.Media, m)
			continue
		}
		if err := enc.Encode(StreamLine{
			Index: m.Class + "." + m.Attr,
			Owner: m.Owner,
			Text:  m.Inline,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Populate(&media); err != nil {
		t.Fatal(err)
	}

	// Two HTTP node servers per hypertext index; the coordinator's
	// engine holds no full-text content of its own.
	indexes := map[string]*dist.Cluster{}
	for _, key := range []string{"Article.body", "Player.history"} {
		var nodes []dist.Node
		for i := 0; i < 2; i++ {
			srv := httptest.NewServer(NewNodeHandler(ir.NewIndex(), nil))
			t.Cleanup(srv.Close)
			nodes = append(nodes, dist.NewRemoteNode(srv.URL, srv.Client()))
		}
		indexes[key] = dist.NewClusterOf(nodes, &dist.Options{NodeTimeout: 5 * time.Second})
	}
	cfg := &CoordinatorConfig{Engine: eng, MaxBody: 4096, StreamFlush: 8}
	if int64(stream.Len()) <= cfg.MaxBody {
		t.Fatalf("stream is %d bytes, not larger than the %d body cap", stream.Len(), cfg.MaxBody)
	}
	co := NewCoordinator(indexes, cfg)
	h := co.Handler()

	req := httptest.NewRequest(http.MethodPost, "/add/stream", &stream)
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", w.Code, w.Body)
	}
	var sum StreamSummaryLine
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last string
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = sc.Text()
		}
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("summary line %q: %v", last, err)
	}
	if !sum.Summary || sum.Errors != 0 || sum.Failed != 0 || sum.Degraded != 0 {
		t.Fatalf("stream summary = %+v", sum)
	}
	if sum.Committed != sum.Lines {
		t.Fatalf("committed %d of %d lines", sum.Committed, sum.Lines)
	}

	// The conceptual query over the cluster: exact, and under a
	// budgeted plan. Figure 13's contains predicate is restricted by the
	// conceptual selections, so the second input runs restricted +
	// budgeted on both sides (the nodes fragment their own partitions,
	// which is why the plan is a full-coverage one).
	four := 4
	wantBudgeted, wantQuality, err := ref.QueryBudgeted(core.Figure13Query, ir.EvalPlan{Frags: four, Budget: four})
	if err != nil {
		t.Fatal(err)
	}
	if wantQuality.TotalIDF == 0 {
		t.Fatalf("engine evaluated the restricted predicate outside the plan: %+v", wantQuality)
	}
	for _, in := range []struct {
		name    string
		req     QueryRequest
		want    *query.Result
		quality ir.QualityEstimate
	}{
		{"exact", QueryRequest{Query: core.Figure13Query}, want, ir.QualityEstimate{}},
		{"restricted+budgeted", QueryRequest{Query: core.Figure13Query, Frags: &four, Budget: &four}, wantBudgeted, wantQuality},
	} {
		body, _ := json.Marshal(in.req)
		qw := postJSON(t, h, "/query", string(body))
		if qw.Code != http.StatusOK {
			t.Fatalf("%s: query status = %d: %s", in.name, qw.Code, qw.Body)
		}
		var got QueryResponse
		if err := json.Unmarshal(qw.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Complete || got.Dropped != 0 || got.Diverged != 0 {
			t.Fatalf("%s: degraded answer: %+v", in.name, got)
		}
		if got.Quality.Value != in.quality.Value() || (got.Quality.TotalIDF == 0) != (in.quality.TotalIDF == 0) {
			t.Fatalf("%s: quality = %+v, want %+v", in.name, got.Quality, in.quality)
		}
		want := in.want
		if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Fatalf("%s: columns = %v, want %v", in.name, got.Columns, want.Columns)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: rows = %d, want %d\ngot %+v\nwant %+v",
				in.name, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
		}
		for i, wr := range want.Rows {
			gr := got.Rows[i]
			if strings.Join(gr.Values, "|") != strings.Join(wr.Values, "|") {
				t.Fatalf("%s: row %d values = %v, want %v", in.name, i, gr.Values, wr.Values)
			}
			if gr.Score != wr.Score {
				t.Fatalf("%s: row %d score = %v, want %v (not byte-identical)", in.name, i, gr.Score, wr.Score)
			}
			if len(gr.Shots) != len(wr.Shots) {
				t.Fatalf("%s: row %d shots = %d, want %d", in.name, i, len(gr.Shots), len(wr.Shots))
			}
			for j, ws := range wr.Shots {
				gs := gr.Shots[j]
				if gs.Begin != ws.Begin || gs.End != ws.End || gs.Tennis != ws.Tennis || gs.Netplay != ws.Netplay {
					t.Fatalf("%s: row %d shot %d = %+v, want %+v", in.name, i, j, gs, ws)
				}
			}
		}
	}
}

// TestQueryDuringStreamWarm: conceptual queries racing a streaming
// ingest must never observe half-built derived caches. A webspace
// line invalidates them mid-stream; /query upgrades to the write lock
// and re-warms before executing (run with -race to catch regressions:
// a lazy rebuild under the shared lock is a concurrent map write).
func TestQueryDuringStreamWarm(t *testing.T) {
	eng, err := core.NewAusOpen(site.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	// A fat conceptual store widens the race window: every lazy
	// rebuild of the derived caches walks all of it.
	const seeded = 2000
	for i := 0; i < seeded; i++ {
		doc := &webspace.Document{
			URL: fmt.Sprintf("seed%d", i),
			Objects: []*webspace.Object{{
				Class: "Player", ID: fmt.Sprintf("s%d", i),
				Attrs: map[string]string{"name": fmt.Sprintf("S%d", i)},
			}},
		}
		if err := eng.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	co := NewCoordinator(map[string]*dist.Cluster{"a": dist.NewCluster(1, nil)},
		&CoordinatorConfig{Engine: eng, StreamFlush: 4})
	h := co.Handler()

	// The stream body is a pipe paced by the test: webspace lines keep
	// flowing (each one invalidates the derived caches) until every
	// query goroutine has run its quota against the live stream.
	pr, pw := io.Pipe()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		req := httptest.NewRequest(http.MethodPost, "/add/stream", pr)
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("stream status = %d: %s", w.Code, w.Body)
		}
	}()
	const perGoroutine = 50
	var wg sync.WaitGroup
	var queries atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				req := httptest.NewRequest(http.MethodPost, "/query",
					strings.NewReader(`{"query":"SELECT p.name FROM Player p"}`))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				queries.Add(1)
				if w.Code != http.StatusOK {
					t.Errorf("query status = %d: %s", w.Code, w.Body)
					return
				}
			}
		}()
	}
	lines := 0
	for queries.Load() < 4*perGoroutine {
		fmt.Fprintf(pw,
			`{"webspace":{"URL":"u%d","Objects":[{"Class":"Player","ID":"p%d","Attrs":{"name":"N%d"}}]}}`+"\n",
			lines, lines, lines)
		lines++
	}
	wg.Wait()
	pw.Close()
	<-streamDone

	// After the stream every streamed object is visible.
	w := postJSON(t, h, "/query", `{"query":"SELECT p.name FROM Player p"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("final query = %d: %s", w.Code, w.Body)
	}
	var got QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != seeded+lines {
		t.Fatalf("rows = %d, want %d", len(got.Rows), seeded+lines)
	}
}

// TestQueryNoEngine: /query on a coordinator without a conceptual
// engine answers 404, not a panic.
func TestQueryNoEngine(t *testing.T) {
	_, h := testCoordinator(t, nil)
	w := postJSON(t, h, "/query", `{"query":"SELECT p.name FROM Player p"}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (%s)", w.Code, w.Body)
	}
}

// TestQueryValidation: parse errors, bad plan overrides and contains
// predicates over indexes no cluster serves are 400s carrying the
// diagnostic, not 500s.
func TestQueryValidation(t *testing.T) {
	eng, err := core.NewAusOpen(site.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	doc := &webspace.Document{
		URL: "u",
		Objects: []*webspace.Object{
			{Class: "Player", ID: "p1", Attrs: map[string]string{"name": "Ada"}},
		},
	}
	if err := eng.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"a": dist.NewCluster(1, nil)},
		&CoordinatorConfig{Engine: eng})
	h := co.Handler()
	cases := []struct {
		name, body, wantErr string
		status              int
	}{
		{"missing query", `{}`, "missing query", http.StatusBadRequest},
		{"parse error", `{"query":"FROM Player p"}`, "query: expected SELECT", http.StatusBadRequest},
		{"bad frags", `{"query":"SELECT p.name FROM Player p","frags":-1}`,
			"frags must be non-negative", http.StatusBadRequest},
		{"bad budget", `{"query":"SELECT p.name FROM Player p","budget":-1}`,
			"budget must be non-negative", http.StatusBadRequest},
		{"bad min_quality", `{"query":"SELECT p.name FROM Player p","min_quality":1.5}`,
			"min_quality must be in [0, 1]", http.StatusBadRequest},
		{"unserved index", `{"query":"SELECT p.name FROM Player p WHERE contains(p.history, 'x')"}`,
			"query: no full-text index for Player.history", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postJSON(t, h, "/query", c.body)
			if w.Code != c.status {
				t.Fatalf("status = %d, want %d (%s)", w.Code, c.status, w.Body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if e.Error != c.wantErr {
				t.Fatalf("error = %q, want %q", e.Error, c.wantErr)
			}
		})
	}
	// A structural query with no contains predicate never touches the
	// cluster and answers from the engine alone.
	w := postJSON(t, h, "/query", `{"query":"SELECT p.name FROM Player p"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("engine-only query = %d (%s)", w.Code, w.Body)
	}
	var got QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Values[0] != "Ada" || !got.Complete {
		t.Fatalf("engine-only answer = %+v", got)
	}
}
