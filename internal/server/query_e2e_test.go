package server

import (
	"bufio"
	"bytes"
	"context"
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
	"dlsearch/internal/obs"
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
	// Both sides also hold tie players, whose identical histories make
	// a LIMIT query's bounded ranking widen past a tie group.
	ties := tiePlayers(30)
	for _, tp := range ties {
		if err := ref.AddDocument(tp.doc); err != nil {
			t.Fatal(err)
		}
		oid, _ := ref.DB.OIDOf(tp.owner)
		ref.IR["Player.history"].Add(oid, tp.owner, tp.text)
	}
	ref.IR["Player.history"].Freeze()
	want, err := ref.Query(core.Figure13Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference answer is empty")
	}
	wantTies, tieStats, err := ref.QueryWithStats(tieQuery, false)
	if err != nil {
		t.Fatal(err)
	}
	if tieStats.Widened == 0 || len(wantTies.Rows) != 3 {
		t.Fatalf("tie query: %d rows, stats %+v; want 3 rows after a widening", len(wantTies.Rows), tieStats)
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
	for _, tp := range ties {
		for _, line := range tp.lines() {
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
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
		{"tie-heavy LIMIT", QueryRequest{Query: tieQuery}, wantTies, ir.QualityEstimate{}},
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

// tieQuery ranks the tie players: all their histories score the same,
// so LIMIT 3 lands inside the tie group.
const tieQuery = "SELECT p.name FROM Player p WHERE contains(p.history, 'tiebreak') LIMIT 3"

// tiePlayer is a player whose history every other tie player shares.
type tiePlayer struct {
	doc         *webspace.Document
	owner, text string
}

// lines renders the player as its /add/stream webspace and owner lines.
func (tp tiePlayer) lines() []StreamLine {
	return []StreamLine{{Webspace: tp.doc}, {Index: "Player.history", Owner: tp.owner, Text: tp.text}}
}

// tiePlayers returns n players with identical histories and
// alternating genders. Runs of four share a name, later runs sorting
// first, so a tie the ranking puts last can lead the answer.
func tiePlayers(n int) []tiePlayer {
	out := make([]tiePlayer, n)
	for i := range out {
		id := fmt.Sprintf("tie-%03d", i)
		gender := "female"
		if i%2 == 1 {
			gender = "male"
		}
		out[i] = tiePlayer{
			doc: &webspace.Document{URL: "ties/" + id, Objects: []*webspace.Object{{
				Class: "Player", ID: id,
				Attrs: map[string]string{"name": fmt.Sprintf("Tie %03d", (n-i)/4), "gender": gender},
			}}},
			owner: "Player:" + id,
			text:  "a tiebreak specialist",
		}
	}
	return out
}

// countingNode counts the RPCs a coordinator sends one node.
type countingNode struct {
	dist.Node
	loads, searches atomic.Int64
}

func (n *countingNode) Load(ctx context.Context) (dist.NodeLoad, error) {
	n.loads.Add(1)
	return n.Node.Load(ctx)
}

func (n *countingNode) SearchPlan(ctx context.Context, q string, plan ir.EvalPlan, global ir.Stats) ([]ir.Result, ir.QualityEstimate, error) {
	n.searches.Add(1)
	return n.Node.SearchPlan(ctx, q, plan, global)
}

// tieCoordinator serves n tie players, streamed in through
// /add/stream, from an engine over a two-node Player.history cluster
// whose RPCs are counted. A non-nil slow log records every /query.
func tieCoordinator(t *testing.T, n int, slow io.Writer) (http.Handler, []*countingNode) {
	t.Helper()
	eng, err := core.NewAusOpen(site.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*countingNode{{Node: dist.NewLocalNode(ir.NewIndex())}, {Node: dist.NewLocalNode(ir.NewIndex())}}
	cfg := &CoordinatorConfig{Engine: eng}
	if slow != nil {
		cfg.SlowQuery = obs.NewSlowQueryLog(slow, time.Nanosecond)
	}
	cluster := dist.NewClusterOf([]dist.Node{nodes[0], nodes[1]}, nil)
	h := NewCoordinator(map[string]*dist.Cluster{"Player.history": cluster}, cfg).Handler()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, tp := range tiePlayers(n) {
		for _, line := range tp.lines() {
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	w := postJSON(t, h, "/add/stream", body.String())
	if want := fmt.Sprintf(`"committed":%d,"degraded":0,"failed":0,"errors":0`, 2*n); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), want) {
		t.Fatalf("stream = %d, want %s: %s", w.Code, want, w.Body)
	}
	return h, nodes
}

// TestQueryNodeRPCs: a /query sends the nodes only the RPCs its
// ranking uses. An unrestricted LIMIT query fans out for the top k and
// never asks for the collection's size unless it widens; a restricted
// one counts the collection and ranks it whole once. Either way a
// predicate fans out at most twice: a widening past the whole ranking
// filters it again instead of fanning out again.
func TestQueryNodeRPCs(t *testing.T) {
	var slow syncBuffer
	h, nodes := tieCoordinator(t, 80, &slow)
	rpcs := func() (loads, searches int64) {
		for _, n := range nodes {
			loads += n.loads.Load()
			searches += n.searches.Load()
		}
		return loads, searches
	}
	for _, c := range []struct {
		name, query       string
		loads, searches   int64
		executeSpanDetail string
	}{
		// k = 160 comes back short: one top-k fan-out over two nodes.
		{"unrestricted", "SELECT p.name FROM Player p WHERE contains(p.history, 'tiebreak') LIMIT 20", 0, 2, "ranked=160 widened=0"},
		// k = 8 ends inside the tie group: the widening to 32 counts the
		// collection and ranks it whole, which k = 128 filters again.
		{"unrestricted, widened", "SELECT p.name FROM Player p WHERE contains(p.history, 'tiebreak') LIMIT 1", 2, 4, "ranked=128 widened=2"},
		// One count and one whole ranking, filtered for k = 24 and 96.
		{"restricted", "SELECT p.name FROM Player p WHERE p.gender = 'female' AND contains(p.history, 'tiebreak') LIMIT 3", 2, 2, "ranked=96 widened=1"},
	} {
		l0, s0 := rpcs()
		body, _ := json.Marshal(QueryRequest{Query: c.query})
		w := postJSON(t, h, "/query", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: query = %d: %s", c.name, w.Code, w.Body)
		}
		l1, s1 := rpcs()
		if l1-l0 != c.loads || s1-s0 != c.searches {
			t.Fatalf("%s: %d load and %d search RPCs, want %d and %d", c.name, l1-l0, s1-s0, c.loads, c.searches)
		}
		if got := executeSpan(t, slow.String()).Detail; got != c.executeSpanDetail {
			t.Fatalf("%s: execute span detail %q, want %q", c.name, got, c.executeSpanDetail)
		}
	}
}

// TestQueryDuringStream: conceptual queries race a streaming ingest
// whose webspace lines maintain the engine's access paths and whose
// owner lines, interleaved with them, resolve oids against those paths
// (run with -race: a reader that writes, or a writer outside the lock,
// is a concurrent map access).
func TestQueryDuringStream(t *testing.T) {
	eng, err := core.NewAusOpen(site.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
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
	co := NewCoordinator(map[string]*dist.Cluster{"Player.history": dist.NewCluster(1, nil)},
		&CoordinatorConfig{Engine: eng, StreamFlush: 4})
	h := co.Handler()

	// The stream body is a pipe paced by the test: webspace and owner
	// lines keep flowing until every query goroutine has run its quota
	// against the live stream.
	pr, pw := io.Pipe()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		req := httptest.NewRequest(http.MethodPost, "/add/stream", pr)
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"degraded":0,"failed":0,"errors":0`) {
			t.Errorf("stream = %d: %s", w.Code, w.Body)
		}
	}()
	const perGoroutine = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				body := `{"query":"SELECT p.name FROM Player p"}`
				if i%2 == 1 {
					body = `{"query":"SELECT p.name FROM Player p WHERE contains(p.history, 'volley') LIMIT 5"}`
				}
				req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("query status = %d: %s", w.Code, w.Body)
					return
				}
			}
		}()
	}
	queried := make(chan struct{})
	go func() {
		wg.Wait()
		close(queried)
	}()
	lines := 0
	for streaming := true; streaming; {
		select {
		case <-queried:
			streaming = false
		default:
			fmt.Fprintf(pw,
				`{"webspace":{"URL":"u%d","Objects":[{"Class":"Player","ID":"p%d","Attrs":{"name":"N%d"}}]}}`+"\n"+
					`{"index":"Player.history","owner":"Player:p%d","text":"serve and volley %d"}`+"\n",
				lines, lines, lines, lines, lines)
			lines++
		}
	}
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
