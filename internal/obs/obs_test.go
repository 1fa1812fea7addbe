package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// bucketFor returns the index of the bucket v lands in, mirroring
// Observe's search, so tests can compute exact expected counts.
func bucketFor(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // (≤1)=0.5,1  (≤2)=1.5,2  (≤4)=3,4  (+Inf)=100
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count=%d want 7", s.Count)
	}
	if math.Abs(s.Sum-112) > 1e-9 {
		t.Fatalf("sum=%g want 112", s.Sum)
	}
}

// Quantile estimates must land within the width of the bucket that
// holds the true quantile, on a known distribution.
func TestHistogramQuantileWithinBucketError(t *testing.T) {
	bounds := LatencyBounds()
	h := NewHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	n := 20000
	samples := make([]float64, n)
	for i := range samples {
		// log-uniform over ~[10µs, 1s] — spans many buckets
		v := math.Exp(rng.Float64()*math.Log(1e5)) * 1e-5
		samples[i] = v
		h.Observe(v)
	}
	snapSorted := append([]float64(nil), samples...)
	sortFloats(snapSorted)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		est := s.Quantile(q)
		truth := snapSorted[int(q*float64(n))-1]
		bi := bucketFor(bounds, truth)
		lower := 0.0
		if bi > 0 {
			lower = bounds[bi-1]
		}
		upper := math.Inf(1)
		if bi < len(bounds) {
			upper = bounds[bi]
		}
		if est < lower || est > upper {
			t.Errorf("q=%g: estimate %g outside true bucket [%g,%g] (truth %g)", q, est, lower, upper, truth)
		}
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// merge(snapshot A, snapshot B) must equal observing A∪B directly.
func TestHistogramMergeEquivalence(t *testing.T) {
	bounds := QualityBounds()
	a, b, both := NewHistogram(bounds), NewHistogram(bounds), NewHistogram(bounds)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := rng.Float64()
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	merged := a.Snapshot().Merge(b.Snapshot())
	direct := both.Snapshot()
	if merged.Count != direct.Count || math.Abs(merged.Sum-direct.Sum) > 1e-6 {
		t.Fatalf("merged count/sum %d/%g != direct %d/%g", merged.Count, merged.Sum, direct.Count, direct.Sum)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != direct.Counts[i] {
			t.Fatalf("bucket %d: merged %d != direct %d", i, merged.Counts[i], direct.Counts[i])
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if m, d := merged.Quantile(q), direct.Quantile(q); math.Abs(m-d) > 1e-9 {
			t.Fatalf("q=%g: merged %g != direct %g", q, m, d)
		}
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1.5)
	s := h.Snapshot()
	if got := s.Merge(HistSnapshot{}); got.Count != 1 {
		t.Fatalf("merge with empty changed count: %d", got.Count)
	}
	if got := (HistSnapshot{}).Merge(s); got.Count != 1 {
		t.Fatalf("empty.Merge(s) lost data: %d", got.Count)
	}
}

// Hammer one histogram from many goroutines; run with -race in CI.
// Total count and sum must be exact — no lost updates.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64() * 0.1)
				if i%100 == 0 {
					_ = h.Snapshot() // concurrent reads must be safe
				}
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count=%d want %d (lost updates)", s.Count, workers*per)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total=%d want %d", bucketTotal, workers*per)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var lg *Logger
	var sq *SlowQueryLog
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	tr.AddSpan("x", time.Now())
	lg.Infof("dropped")
	sq.Record(NewTrace(""), SlowQueryRecord{})
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 || tr.Spans() != nil {
		t.Fatal("nil instruments must observe nothing")
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("dl_search_requests_total", "Search requests.", Labels("index", "default")).Add(5)
	r.Counter("dl_search_requests_total", "Search requests.", Labels("index", "other")).Add(2)
	r.Gauge("dl_inflight_requests", "In-flight requests.", "").Set(3)
	h := r.Histogram("dl_search_latency_seconds", "Latency.", "", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE dl_search_requests_total counter",
		`dl_search_requests_total{index="default"} 5`,
		`dl_search_requests_total{index="other"} 2`,
		"# TYPE dl_inflight_requests gauge",
		"dl_inflight_requests 3",
		"# TYPE dl_search_latency_seconds histogram",
		`dl_search_latency_seconds_bucket{le="0.001"} 1`,
		`dl_search_latency_seconds_bucket{le="0.01"} 2`,
		`dl_search_latency_seconds_bucket{le="+Inf"} 3`,
		"dl_search_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("dl_search_requests_total", "", Labels("index", "default")).Value() != 5 {
		t.Fatal("re-registration did not return existing counter")
	}
}

func TestRegistryHistogramLabelsInBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dl_lat", "", Labels("index", "a"), []float64{1})
	h.Observe(0.5)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `dl_lat_bucket{index="a",le="1"} 1`) {
		t.Fatalf("labelled bucket missing:\n%s", buf.String())
	}
}

// TestRegistrySeriesView: the JSON view lists every instrument in
// registration order, its histogram quantiles are HistSnapshot's, and
// label values carrying the text format's escapes survive the
// rendered label set and a JSON round trip.
func TestRegistrySeriesView(t *testing.T) {
	r := NewRegistry()
	odd := "a \"quoted\" \\ path\nline two"
	r.Counter("dl_c_total", "", Labels("index", odd, "kind", "delta")).Add(7)
	r.GaugeFunc("dl_g", "", "", func() float64 { return 2.5 })
	h := r.Histogram("dl_h_seconds", "", Labels("index", "a"), LatencyBounds())
	for _, v := range []float64{0.0001, 0.002, 0.002, 0.03, 1.5} {
		h.Observe(v)
	}
	r.OnScrape(func() { r.Counter("dl_lazy_total", "", "") })

	data, err := json.Marshal(r.Series())
	if err != nil {
		t.Fatal(err)
	}
	var got []Series
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("view = %s, want 4 series", data)
	}
	for i, name := range []string{"dl_c_total", "dl_g", "dl_h_seconds", "dl_lazy_total"} {
		if got[i].Name != name {
			t.Fatalf("series %d = %q, want %q (registration order)", i, got[i].Name, name)
		}
	}
	c := got[0]
	if c.Labels["index"] != odd || c.Labels["kind"] != "delta" || len(c.Labels) != 2 {
		t.Fatalf("labels = %q, want index %q and kind delta", c.Labels, odd)
	}
	if c.Value == nil || *c.Value != 7 || c.HistSummary != nil {
		t.Fatalf("counter = %+v, want value 7 and no histogram part", c)
	}
	if g := got[1]; g.Labels != nil || g.Value == nil || *g.Value != 2.5 {
		t.Fatalf("gauge = %+v, want unlabelled value 2.5", g)
	}
	if z := got[3]; z.Value == nil || *z.Value != 0 {
		t.Fatalf("zero counter = %s, want an explicit value 0", data)
	}
	snap := h.Snapshot()
	hs := got[2].HistSummary
	if hs == nil || got[2].Value != nil {
		t.Fatalf("histogram = %+v, want a summary and no value", got[2])
	}
	if hs.Count != snap.Count || hs.Sum != snap.Sum ||
		hs.P50 != snap.Quantile(0.50) || hs.P95 != snap.Quantile(0.95) || hs.P99 != snap.Quantile(0.99) {
		t.Fatalf("histogram summary = %+v, want the snapshot's count %d, sum %g, quantiles %g/%g/%g",
			hs, snap.Count, snap.Sum, snap.Quantile(0.50), snap.Quantile(0.95), snap.Quantile(0.99))
	}
}

func TestRuntimeGaugesAndHandler(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntimeGauges()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %s:\n%s", want, body)
		}
	}
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics: status %d want 405", rec.Code)
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("")
	if len(tr.ID) != 16 {
		t.Fatalf("ID %q: want 16 hex chars", tr.ID)
	}
	start := time.Now()
	tr.AddSpan("plan", start)
	tr.AddSpan("merge", start)
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("spans=%d want 2", got)
	}
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost trace")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil trace")
	}
	if tr2 := NewTrace("abc123"); tr2.ID != "abc123" {
		t.Fatalf("explicit ID not kept: %q", tr2.ID)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "dlserve", LevelInfo)
	lg.Debugf("hidden %d", 1)
	lg.Infof("shown %d", 2)
	lg.Warnf("warned")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug leaked at info level: %s", out)
	}
	if !strings.Contains(out, "dlserve: info: shown 2") || !strings.Contains(out, "dlserve: warn: warned") {
		t.Fatalf("unexpected output: %s", out)
	}
	lg.SetLevel(LevelDebug)
	lg.Debugf("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Fatal("SetLevel(debug) did not enable debug")
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Fatal("ParseLevel must reject bogus levels")
	}
	for s, want := range map[string]Level{"debug": LevelDebug, "INFO": LevelInfo, "warning": LevelWarn, "error": LevelError} {
		if got, err := ParseLevel(s); err != nil || got != want {
			t.Fatalf("ParseLevel(%q)=%v,%v want %v", s, got, err, want)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	sq := NewSlowQueryLog(&buf, time.Nanosecond)
	tr := NewTrace("req-1")
	tr.AddSpan("scoring", tr.Start)
	time.Sleep(time.Millisecond)
	sq.Record(tr, SlowQueryRecord{Role: "node", Index: "default", Query: "a b"})
	var rec SlowQueryRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("bad JSON line: %v (%s)", err, buf.String())
	}
	if rec.RequestID != "req-1" || rec.Role != "node" || rec.TookUS <= 0 || len(rec.Spans) != 1 {
		t.Fatalf("bad record: %+v", rec)
	}
	// Fast queries stay silent.
	buf.Reset()
	sq2 := NewSlowQueryLog(&buf, time.Hour)
	sq2.Record(NewTrace(""), SlowQueryRecord{})
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %s", buf.String())
	}
	// Disabled log is nil and safe.
	if NewSlowQueryLog(&buf, 0) != nil {
		t.Fatal("threshold 0 must disable the log")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile must be 0")
	}
	h := NewHistogram([]float64{1, 2})
	h.Observe(10) // only +Inf bucket
	if q := h.Snapshot().Quantile(0.5); q != 2 {
		t.Fatalf("+Inf-only quantile=%g want highest finite edge 2", q)
	}
}
