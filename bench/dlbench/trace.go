package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A span is one interval at a layer boundary. The three boundaries are
// recorded from the benchmark's own wrappers: the generator
// (client.request), an http.Handler around the coordinator
// (server.coordinator) and a dist.Node around each RemoteNode
// (dist.rpc.<op>). Spans of one request share Req, the X-DL-Request id
// the generator sent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Req    string `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // client and server spans: search, query or stream
	Start  int64  `json:"start_ns"`     // since the recorder was made
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enable switches recording on or off; set-up and probes run with it
// off. A span started while off is dropped.
func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// start opens a span and returns its id, 0 when recording is off.
func (r *recorder) start(name, op, req string, parent int) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Op: op, Start: now})
	return len(r.spans)
}

// startRequest opens a generator span; its id doubles as the request
// id every span below it carries.
func (r *recorder) startRequest(op string) int {
	id := r.start("client.request", op, "", 0)
	if id != 0 {
		r.mu.Lock()
		r.spans[id-1].Req = requestID(id)
		r.mu.Unlock()
	}
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns the finished spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// The generator's span id travels as the request id, so the
// coordinator wrapper can name its parent.
func requestID(spanID int) string {
	if spanID == 0 {
		return ""
	}
	return strconv.Itoa(spanID)
}

func parentOf(reqID string) int {
	n, _ := strconv.Atoi(reqID) // a foreign id simply has no parent
	return n
}

// spanKey carries the enclosing server.coordinator span down the
// coordinator's call tree to the node wrappers.
type spanKey struct{}

type spanRef struct {
	id  int
	req string
}

func withSpan(ctx context.Context, id int, req string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// covered is the length in ms of the union of the children's intervals
// clipped to [lo, hi].
func covered(children []*span, lo, hi int64) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total) / 1e6
}

// traceStats are the figures read off the spans of one traced replay.
type traceStats struct {
	client     map[string]series // client.request, by op
	httpSelf   series            // client.request − server.coordinator
	serverSelf map[string]series // server.coordinator − union(children), by op
	server     map[string]series // server.coordinator, by op
	fanout     series            // union(children) of a search
	rpc        map[string]series // dist.rpc.<op> durations
	skew       series            // slowest − fastest search rpc within one search
	reads      int               // search + query requests
	perDocAdds int               // dist.rpc.add spans: the batch path fell back
}

func analyse(spans []span) *traceStats {
	st := &traceStats{
		client:     map[string]series{},
		serverSelf: map[string]series{},
		server:     map[string]series{},
		rpc:        map[string]series{},
	}
	kids := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	const rpcPrefix = "dist.rpc."
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "client.request":
			st.client[s.Op] = append(st.client[s.Op], s.ms())
			if s.Op != "stream" {
				st.reads++
			}
			for _, co := range kids[s.ID] {
				if co.Name == "server.coordinator" {
					st.httpSelf = append(st.httpSelf, s.ms()-co.ms())
				}
			}
		case s.Name == "server.coordinator":
			cov := covered(kids[s.ID], s.Start, s.End)
			st.server[s.Op] = append(st.server[s.Op], s.ms())
			st.serverSelf[s.Op] = append(st.serverSelf[s.Op], s.ms()-cov)
			if s.Op == "search" {
				st.fanout = append(st.fanout, cov)
				lo, hi, n := 0.0, 0.0, 0
				for _, c := range kids[s.ID] {
					if c.Name != rpcPrefix+"search" {
						continue
					}
					if n == 0 || c.ms() < lo {
						lo = c.ms()
					}
					if c.ms() > hi {
						hi = c.ms()
					}
					n++
				}
				if n > 1 {
					st.skew = append(st.skew, hi-lo)
				}
			}
		default:
			if op, ok := strings.CutPrefix(s.Name, rpcPrefix); ok {
				st.rpc[op] = append(st.rpc[op], s.ms())
				if op == "add" {
					st.perDocAdds++
				}
			}
		}
	}
	return st
}
