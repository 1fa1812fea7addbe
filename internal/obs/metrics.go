// Package obs is the observability substrate for dlsearch: a
// dependency-free metrics core (counters, gauges, and mergeable
// histograms safe for the scoring hot path — no locks, no allocations
// per observation), a per-query trace with request-ID propagation,
// and a leveled logger. Serving layers register their instruments in
// a Registry, which renders them in the Prometheus text exposition
// format for GET /metrics and as a JSON list for embedding in reports.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; a nil *Counter is a no-op so uninstrumented code
// paths pay only a predictable branch.
type Counter struct{ v atomic.Uint64 }

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 instrument (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free and allocation-free: one atomic add on the bucket, one
// CAS loop on the float sum. Bounds are upper bucket edges in
// ascending order; an implicit +Inf bucket catches the overflow. A
// nil *Histogram ignores observations, so hot paths can be
// instrumented unconditionally and pay nothing when observability is
// off.
type Histogram struct {
	bounds  []float64 // upper edges, ascending; counts has len(bounds)+1
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bucket edges. The slice is retained; callers must not mutate it.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// LatencyBounds returns log-spaced duration edges (seconds) from 1µs
// to ~67s, doubling each bucket: fine resolution where queries live,
// bounded cardinality everywhere else.
func LatencyBounds() []float64 {
	bounds := make([]float64, 27)
	v := 1e-6
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// QualityBounds returns linear edges over [0,1] in steps of 0.05 for
// served QualityEstimate values.
func QualityBounds() []float64 {
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = 0.05 * float64(i+1)
	}
	return bounds
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; branch-free enough for
	// the hot path and allocation-free always.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Snapshot captures a point-in-time copy of the histogram. Buckets
// are read without a global lock, so under concurrent writers the
// snapshot is a consistent-enough view (each bucket is individually
// atomic); Count is recomputed from the buckets so quantiles always
// see an internally consistent total.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram's state; the zero
// value is an empty snapshot.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1, last is +Inf
	Count  uint64
	Sum    float64
}

// Merge folds other into s (bucket-wise add). Both snapshots must
// share bucket bounds; merging an empty snapshot is a no-op.
func (s HistSnapshot) Merge(other HistSnapshot) HistSnapshot {
	if other.Count == 0 && other.Sum == 0 {
		return s
	}
	if s.Count == 0 && s.Sum == 0 && s.Bounds == nil {
		return other
	}
	if len(s.Bounds) != len(other.Bounds) {
		panic("obs: merging histogram snapshots with different bucket bounds")
	}
	out := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + other.Count,
		Sum:    s.Sum + other.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + other.Counts[i]
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket containing the target rank — the
// standard Prometheus histogram_quantile estimate, so the error is
// bounded by the bucket width. Returns 0 on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) >= rank {
			if i == len(s.Bounds) {
				// +Inf bucket: the best defensible point estimate is
				// the highest finite edge.
				if len(s.Bounds) == 0 {
					return 0
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			if c == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-prev)/float64(c)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean reports the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// metric is one named instrument plus its exposition metadata.
type metric struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	labels string // rendered label set: `{index="default"}` or ""

	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// value reads a counter or gauge.
func (m *metric) value() float64 {
	switch {
	case m.counterFunc != nil:
		return float64(m.counterFunc())
	case m.gaugeFunc != nil:
		return m.gaugeFunc()
	case m.kind == "counter":
		return float64(m.counter.Value())
	}
	return m.gauge.Value()
}

// Registry names instruments and renders them as Prometheus text
// (WritePrometheus) or as a JSON-ready list (Series). Registration is
// idempotent per (name, labels) pair: asking twice returns the same
// instrument, so packages can register lazily without coordination.
// All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	metrics    map[string]*metric // key: name + labels
	order      []*metric          // registration order
	onScrape   []func()
	runtimeReg bool // RegisterRuntimeGauges already ran
}

// NewRegistry returns an empty registry (no runtime gauges; call
// RegisterRuntimeGauges for the Go runtime series).
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Labels renders an ordered list of key, value pairs as a Prometheus
// label set. Values are escaped per the text format.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var (
	labelEscaper   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	labelPair      = regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)
)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// parseLabels inverts Labels: a rendered label set back to its pairs.
func parseLabels(labels string) map[string]string {
	if labels == "" {
		return nil
	}
	out := make(map[string]string)
	for _, m := range labelPair.FindAllStringSubmatch(labels, -1) {
		out[m[1]] = labelUnescaper.Replace(m[2])
	}
	return out
}

func (r *Registry) lookup(name, labels, kind, help string) *metric {
	key := name + labels
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as %s, not %s", key, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	r.metrics[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name+labels, creating
// it on first use.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels, "counter", help)
	if m.counter == nil && m.counterFunc == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time (for pre-existing atomics like dist.Telemetry).
func (r *Registry) CounterFunc(name, help, labels string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels, "counter", help)
	m.counterFunc = fn
}

// Gauge returns the gauge registered under name+labels, creating it
// on first use.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels, "gauge", help)
	if m.gauge == nil && m.gaugeFunc == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge computed from fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels, "gauge", help)
	m.gaugeFunc = fn
}

// Histogram returns the histogram registered under name+labels,
// creating it with the given bounds on first use.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels, "histogram", help)
	if m.hist == nil {
		m.hist = NewHistogram(bounds)
	}
	return m.hist
}

// OnScrape registers a hook run at the start of every scrape
// (WritePrometheus or Series), before values are read — the place to
// refresh GaugeFunc sources that are expensive to compute per-gauge
// (one ReadMemStats feeding several gauges).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// RegisterRuntimeGauges adds the standard Go runtime series
// (goroutines, heap bytes, GC pause total, GC cycles) fed by a single
// ReadMemStats per scrape. Idempotent: a registry shared by a node
// and a coordinator in one process registers the series once.
func (r *Registry) RegisterRuntimeGauges() {
	r.mu.Lock()
	if r.runtimeReg {
		r.mu.Unlock()
		return
	}
	r.runtimeReg = true
	r.mu.Unlock()
	var mu sync.Mutex
	var ms runtime.MemStats
	r.OnScrape(func() {
		mu.Lock()
		runtime.ReadMemStats(&ms)
		mu.Unlock()
	})
	read := func(f func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f(&ms)
		}
	}
	r.GaugeFunc("go_goroutines", "Number of goroutines.", "",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "",
		read(func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }))
	r.GaugeFunc("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.", "",
		read(func(m *runtime.MemStats) float64 { return float64(m.HeapSys) }))
	r.GaugeFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "",
		read(func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 }))
	r.GaugeFunc("go_gc_cycles_total", "Completed GC cycles.", "",
		read(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
}

// snapshot runs the scrape hooks, then copies the series list once,
// in registration order. Both views read one snapshot, so a series
// cannot appear in one and be missing from the other.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	// Hooks run before the series list is copied so that series a hook
	// registers lazily (e.g. per-fragment counters whose cardinality is
	// only known at scrape time) appear in the same scrape that created
	// them.
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.order...)
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format (version 0.0.4). Histograms emit
// cumulative le buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	// Group series of the same family so # HELP/# TYPE headers are
	// emitted once, with families in first-registration order.
	var families []string
	fam := make(map[string][]*metric)
	for _, m := range r.snapshot() {
		if fam[m.name] == nil {
			families = append(families, m.name)
		}
		fam[m.name] = append(fam[m.name], m)
	}

	for _, name := range families {
		series := fam[name]
		first := series[0]
		if first.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, first.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, first.kind)
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		for _, m := range series {
			if m.kind == "histogram" {
				writeHistogram(w, m)
			} else {
				fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatFloat(m.value()))
			}
		}
	}
}

// Series is one instrument in the registry's JSON view: a counter or
// gauge carries Value, a histogram its count, sum and quantiles.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	*HistSummary
}

// HistSummary is a histogram's part of a Series. The quantiles are
// HistSnapshot.Quantile's estimates, in the histogram's own unit.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Series renders every registered instrument as a flat list in
// registration order, read from the same snapshot WritePrometheus
// takes: the JSON view of the same series.
func (r *Registry) Series() []Series {
	ms := r.snapshot()
	out := make([]Series, len(ms))
	for i, m := range ms {
		s := Series{Name: m.name, Labels: parseLabels(m.labels)}
		if m.kind == "histogram" {
			snap := m.hist.Snapshot()
			s.HistSummary = &HistSummary{
				Count: snap.Count,
				Sum:   snap.Sum,
				P50:   snap.Quantile(0.50),
				P95:   snap.Quantile(0.95),
				P99:   snap.Quantile(0.99),
			}
		} else {
			v := m.value()
			s.Value = &v
		}
		out[i] = s
	}
	return out
}

func writeHistogram(w io.Writer, m *metric) {
	s := m.hist.Snapshot()
	inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
	leLabel := func(le string) string {
		if inner == "" {
			return `{le="` + le + `"}`
		}
		return "{" + inner + `,le="` + le + `"}`
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, leLabel(formatFloat(b)), cum)
	}
	if len(s.Counts) > 0 {
		cum += s.Counts[len(s.Counts)-1]
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, leLabel("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.labels, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, cum)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler serves the registry as a GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		r.WritePrometheus(w)
	})
}
