package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// HeaderRequestID is the HTTP header carrying a query's request ID
// from the coordinator to the nodes it reaches over HTTP (and echoed
// back to the client), so node-side spans and slow-query log lines
// join the same trace. On the persistent node connection the ID
// travels inside the search frame instead.
const HeaderRequestID = "X-DL-Request"

// Span is one timed stage of a query: parse/plan, cache lookup,
// per-node RPC, node-side scoring, merge.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_us"` // offset from trace start
	Dur   time.Duration `json:"dur_us"`
	// Detail annotates the stage with what it did ("k=v k=v"), for
	// stages whose duration alone does not explain itself.
	Detail string `json:"detail,omitempty"`
}

// Trace is a lightweight per-query trace: a request ID plus per-stage
// spans. A nil *Trace is a valid no-op, so call sites instrument
// unconditionally and pay only a nil check when tracing is off.
// Span recording takes a mutex — traces live on the request path, not
// the per-document scoring path, so this is well off the hot loop.
type Trace struct {
	ID    string
	Start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace with the given request ID, generating a
// fresh ID when id is empty.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id, Start: time.Now()}
}

// NewID returns a 16-hex-char random request ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; fall back
		// to a time-derived ID rather than failing the query.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// AddSpan records a stage that began at start and ends now.
func (t *Trace) AddSpan(name string, start time.Time) {
	t.AddSpanDetail(name, start, "")
}

// AddSpanDetail is AddSpan with an annotation. Callers build the detail
// string only behind their own nil check, so an untraced path pays
// nothing for it.
func (t *Trace) AddSpanDetail(name string, start time.Time, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.Start), Dur: time.Since(start), Detail: detail})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Elapsed reports time since the trace began.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.Start)
}

type traceKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext extracts the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
