package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/site"
	"dlsearch/internal/slo"
)

// statsFields maps every number the coordinator's /stats reported
// while it was a hand-built tree to where it is now: a series of the
// metrics view (series and labels), or a field /stats keeps (kept, a
// path of JSON names, * for any map key). moved marks the numbers the
// traffic of TestStatsIsRegistryView must have moved off zero.
var statsFields = []struct {
	field  string
	series string
	labels []string
	kept   string
	moved  bool
}{
	{field: "uptime_seconds", kept: "uptime_seconds"},
	{field: "requests.search", series: "dl_coordinator_requests_total", labels: []string{"op", "search"}, moved: true},
	{field: "requests.add", series: "dl_coordinator_requests_total", labels: []string{"op", "add"}, moved: true},
	{field: "requests.errors", series: "dl_coordinator_errors_total", moved: true},
	{field: "concurrency.in_flight", series: "dl_coordinator_in_flight"},
	{field: "concurrency.limit", series: "dl_coordinator_max_concurrent", moved: true},
	{field: "concurrency.waiting", series: "dl_coordinator_waiting"},
	{field: "concurrency.shed_503_total", series: "dl_coordinator_shed_total"},
	{field: "query_cache.hits", series: "dl_node_query_cache_total", labels: []string{"index", "Player.history", "result", "hit"}, moved: true},
	{field: "query_cache.misses", series: "dl_node_query_cache_total", labels: []string{"index", "Player.history", "result", "miss"}, moved: true},
	{field: "query_cache.entries", series: "dl_node_query_cache_entries", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.nodes", kept: "indexes.*.nodes"},
	{field: "indexes.*.docs", kept: "indexes.*.docs"},
	{field: "indexes.*.node_loads", kept: "indexes.*.node_loads"},
	{field: "indexes.*.groups", kept: "indexes.*.groups"},
	{field: "indexes.*.error", kept: "indexes.*.error"},
	{field: "indexes.*.searches", series: "dl_cluster_searches_total", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.failovers", series: "dl_cluster_failovers_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.dropped_nodes", series: "dl_cluster_dropped_nodes_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.resyncs (delta + full)", series: "dl_cluster_resyncs_total", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.divergence_detected", series: "dl_cluster_divergence_detected_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.resyncs_delta", series: "dl_cluster_resyncs_total", labels: []string{"index", "Player.history", "kind", "delta"}, moved: true},
	{field: "indexes.*.resyncs_full", series: "dl_cluster_resyncs_total", labels: []string{"index", "Player.history", "kind", "full"}},
	{field: "indexes.*.resync_bytes", series: "dl_cluster_resync_bytes_total", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.latency_ms", series: "dl_search_latency_seconds", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.quality", series: "dl_search_quality", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.query_cache", series: "dl_node_query_cache_total", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.slo.target_ms", kept: "indexes.*.slo.target_ms"},
	{field: "indexes.*.slo.min_quality", kept: "indexes.*.slo.min_quality"},
	{field: "indexes.*.slo.max_budget", kept: "indexes.*.slo.max_budget"},
	{field: "indexes.*.slo.curve", kept: "indexes.*.slo.curve"},
	{field: "indexes.*.slo.shed_level", series: "dl_slo_shed_level", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.slo.decisions", series: "dl_slo_decisions_total", labels: []string{"index", "Player.history"}, moved: true},
	{field: "indexes.*.slo.degraded", series: "dl_slo_degraded_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.slo.overrides", series: "dl_slo_overrides_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.slo.floor_hits", series: "dl_slo_floor_hits_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.slo.rejected", series: "dl_slo_rejected_total", labels: []string{"index", "Player.history"}},
	{field: "indexes.*.slo.probes", series: "dl_slo_probes_total", labels: []string{"index", "Player.history"}},
}

// TestStatsIsRegistryView: after adds, exact, budgeted and adaptive
// searches, a /query, a rejected request and a delta resync, the
// /stats metrics view and /metrics list the same series with equal
// values (equal counts and sums for histograms), and every number the
// hand-built /stats reported is still reported (statsFields).
func TestStatsIsRegistryView(t *testing.T) {
	eng, err := core.NewAusOpen(site.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	qc := core.NewQueryCache(32)
	InstrumentQueryCache(reg, qc, "index", "Player.history")
	mkNode := func() *dist.LocalNode {
		l, err := persist.OpenOpLog(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		n := dist.NewLocalNode(ir.NewIndex())
		n.SetOpLog(l)
		n.SetResolver(qc.Resolve)
		return n
	}
	a, b := mkNode(), mkNode()
	cluster := dist.NewReplicatedClusterOf([][]dist.Node{{a, b}}, nil)
	co := NewCoordinator(map[string]*dist.Cluster{"Player.history": cluster}, &CoordinatorConfig{
		Metrics: reg,
		Engine:  eng,
		SLO:     slo.New(slo.Config{Target: time.Second, MaxBudget: 4}),
	})
	h := co.Handler()

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, tp := range tiePlayers(8) {
		for _, line := range tp.lines() {
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, sum := streamLines(t, h, body.String()); sum.Committed != 16 {
		t.Fatalf("stream summary = %+v, want 16 committed", sum)
	}
	for _, req := range []struct {
		path, body string
		status     int
	}{
		{"/search", `{"query":"tiebreak specialist","n":5,"budget":0}`, http.StatusOK},
		{"/search?frag=1&frags=4", `{"query":"tiebreak","n":5}`, http.StatusOK},
		{"/search", `{"query":"tiebreak","n":5}`, http.StatusOK}, // adaptive: an SLO decision
		{"/search", `{"query":"tiebreak","n":5}`, http.StatusOK}, // a query-cache hit
		{"/query", `{"query":"` + tieQuery + `"}`, http.StatusOK},
		{"/search", `{"n":5}`, http.StatusBadRequest},
	} {
		if w := postJSON(t, h, req.path, req.body); w.Code != req.status {
			t.Fatalf("POST %s = %d, want %d: %s", req.path, w.Code, req.status, w.Body)
		}
	}
	// Replica b misses a write; anti-entropy heals it by delta.
	if err := a.AddBatch(context.Background(), []dist.Doc{{OID: bat.OID(1000), URL: "u", Text: "late tiebreak"}}); err != nil {
		t.Fatal(err)
	}
	if rep := cluster.CheckReplicas(context.Background(), true); rep.Resynced != 1 {
		t.Fatalf("anti-entropy pass = %+v", rep)
	}

	st := getStats(t, h)
	scraped := scrapeSamples(t, get(t, h, "/metrics").Body.String())

	// Same series, same numbers. The runtime gauges move between two
	// scrapes, and /stats itself holds a semaphore slot that /metrics,
	// outside the semaphore, does not.
	volatile := func(name string) bool {
		return strings.HasPrefix(name, "go_") || name == "dl_coordinator_in_flight"
	}
	viewed := map[string]bool{}
	for _, s := range st.Metrics {
		key := s.Name + labelKey(s.Labels)
		if viewed[key] {
			t.Fatalf("/stats lists %s twice", key)
		}
		viewed[key] = true
		if s.HistSummary != nil {
			count, sum := scraped[s.Name+"_count"+labelKey(s.Labels)], scraped[s.Name+"_sum"+labelKey(s.Labels)]
			if count == nil || sum == nil {
				t.Fatalf("/metrics lacks histogram %s", key)
			}
			if float64(s.Count) != *count || s.Sum != *sum {
				t.Errorf("%s: /stats count %d sum %g, /metrics count %g sum %g", key, s.Count, s.Sum, *count, *sum)
			}
			delete(scraped, s.Name+"_count"+labelKey(s.Labels))
			delete(scraped, s.Name+"_sum"+labelKey(s.Labels))
			continue
		}
		v := scraped[key]
		if v == nil {
			t.Fatalf("/metrics lacks %s", key)
		}
		if s.Value == nil || (*s.Value != *v && !volatile(s.Name)) {
			t.Errorf("%s: /stats %v, /metrics %g", key, s.Value, *v)
		}
		delete(scraped, key)
	}
	for key := range scraped {
		t.Errorf("/metrics serves %s, which /stats does not list", key)
	}

	for _, f := range statsFields {
		if f.kept != "" {
			if !hasJSONPath(reflect.TypeOf(StatsResponse{}), strings.Split(f.kept, ".")) {
				t.Errorf("%s: /stats no longer has %s", f.field, f.kept)
			}
			continue
		}
		s := statsSeries(t, st, f.series, f.labels...)
		moved := s.Value != nil && *s.Value > 0 || s.HistSummary != nil && s.Count > 0
		if f.moved && !moved {
			t.Errorf("%s: %s%v did not move: %+v", f.field, f.series, f.labels, s)
		}
	}
}

// scrapeSamples reads the samples of a /metrics page, keyed by name
// plus labelKey; a histogram contributes its _count and _sum only.
func scrapeSamples(t *testing.T, page string) map[string]*float64 {
	t.Helper()
	sample := regexp.MustCompile(`^(\w+)(\{.*\})? (\S+)$`)
	pair := regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)
	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	out := map[string]*float64{}
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed /metrics line %q", line)
		}
		if strings.HasSuffix(m[1], "_bucket") {
			continue
		}
		labels := map[string]string{}
		for _, p := range pair.FindAllStringSubmatch(m[2], -1) {
			labels[p[1]] = unescape.Replace(p[2])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[m[1]+labelKey(labels)] = &v
	}
	return out
}

// labelKey renders a label set canonically: sorted k=v pairs.
func labelKey(labels map[string]string) string {
	pairs := make([]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}

// hasJSONPath reports whether the JSON rendering of typ has the field
// path, with * standing for any map key.
func hasJSONPath(typ reflect.Type, path []string) bool {
	for len(path) > 0 {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		switch {
		case typ.Kind() == reflect.Map && path[0] == "*":
			typ = typ.Elem()
		case typ.Kind() == reflect.Struct:
			found := false
			for i := 0; i < typ.NumField(); i++ {
				name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
				if name == path[0] {
					typ, found = typ.Field(i).Type, true
					break
				}
			}
			if !found {
				return false
			}
		default:
			return false
		}
		path = path[1:]
	}
	return true
}
