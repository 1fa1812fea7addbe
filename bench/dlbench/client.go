package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"
)

// maxConns is the generator's connection cap: one load-generating
// process with no more connections than the box has processors.
var maxConns = runtime.NumCPU()

// newHTTPClient is the one client every generator request goes through.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}}
}

// requestIDHeader joins a client span to the coordinator's span.
const requestIDHeader = "X-DL-Request"

// api speaks the coordinator's HTTP API. A non-empty id on a call is
// sent as X-DL-Request (traced runs only).
type api struct {
	hc   *http.Client
	base string // http://host:port
}

type searchResult struct {
	Doc   uint64  `json:"doc"`
	Score float64 `json:"score"`
}

type searchResponse struct {
	Results []searchResult `json:"results"`
	Quality struct {
		Value float64 `json:"value"`
	} `json:"quality"`
	Complete bool `json:"complete"`
}

type queryResponse struct {
	Columns []string `json:"columns"`
	Rows    []struct {
		Values []string `json:"values"`
		Score  float64  `json:"score"`
	} `json:"rows"`
	Complete bool `json:"complete"`
}

type streamSummary struct {
	Summary   bool `json:"summary"`
	Lines     int  `json:"lines"`
	Committed int  `json:"committed"`
	Degraded  int  `json:"degraded"`
	Failed    int  `json:"failed"`
	Errors    int  `json:"errors"`
}

func (a *api) post(ctx context.Context, path, id, ctype string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (a *api) postJSON(ctx context.Context, path, id string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := a.post(ctx, path, id, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// search runs POST /search; frag > 0 asks for that many leading
// fragments (/search?frag=N), 0 for the exact search.
func (a *api) search(ctx context.Context, id, index, query string, n, frag int) (*searchResponse, error) {
	path := "/search"
	if frag > 0 {
		path += "?frag=" + strconv.Itoa(frag)
	}
	var out searchResponse
	err := a.postJSON(ctx, path, id, map[string]any{"index": index, "query": query, "n": n}, &out)
	if err != nil {
		return nil, err
	}
	if !out.Complete {
		return nil, fmt.Errorf("search %q: complete=false", query)
	}
	return &out, nil
}

func (a *api) query(ctx context.Context, id, q string) (*queryResponse, error) {
	var out queryResponse
	if err := a.postJSON(ctx, "/query", id, map[string]any{"query": q}, &out); err != nil {
		return nil, err
	}
	if !out.Complete {
		return nil, fmt.Errorf("query %q: complete=false", q)
	}
	return &out, nil
}

// stream posts one NDJSON body to /add/stream and returns the summary
// line. It fails unless every line was committed cleanly.
func (a *api) stream(ctx context.Context, id string, body []byte) (*streamSummary, error) {
	resp, err := a.post(ctx, "/add/stream", id, "application/x-ndjson", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream response: %w", err)
	}
	var sum streamSummary
	if err := json.Unmarshal(last, &sum); err != nil || !sum.Summary {
		return nil, fmt.Errorf("stream response has no summary line (last line %q)", last)
	}
	if sum.Committed != sum.Lines || sum.Errors != 0 || sum.Failed != 0 || sum.Degraded != 0 {
		return &sum, fmt.Errorf("stream not clean: %+v", sum)
	}
	return &sum, nil
}

// docCount reads the coordinator's /stats document count for an index.
func (a *api) docCount(ctx context.Context, index string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Indexes map[string]struct {
			Docs  int    `json:"docs"`
			Error string `json:"error"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("/stats: %w", err)
	}
	ix, ok := st.Indexes[index]
	if !ok {
		return 0, fmt.Errorf("/stats has no index %q", index)
	}
	if ix.Error != "" {
		return ix.Docs, fmt.Errorf("/stats index %q: %s", index, ix.Error)
	}
	return ix.Docs, nil
}
