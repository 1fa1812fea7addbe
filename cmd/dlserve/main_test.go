package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/server"
	"dlsearch/internal/site"
	"dlsearch/internal/slo"
)

// families maps a metric family to its label keys, each with the
// values it takes; an empty value set means any value.
type families map[string]map[string]map[string]bool

func (f families) add(name, key, value string) {
	if f[name] == nil {
		f[name] = map[string]map[string]bool{}
	}
	if key == "" {
		return
	}
	if f[name][key] == nil {
		f[name][key] = map[string]bool{}
	}
	if value != "" {
		f[name][key][value] = true
	}
}

var (
	backticked = regexp.MustCompile("`([^`]*)`")
	braces     = regexp.MustCompile(`^(.*)\{([^}]*)\}(.*)$`)
	labelPair  = regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)
)

// readmeMetrics parses the README's metric table: the dl_* names in
// the first column (`a_{x,y}_b` expands to both), and in the second
// the label keys, each optionally with its values (`op="a"\|"b"`).
func readmeMetrics(t *testing.T, path string) families {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := families{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| metric | labels | meaning |") {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "\x00"), "|")
		if len(cells) < 4 {
			t.Fatalf("malformed metric row %q", line)
		}
		var names []string
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			if b := braces.FindStringSubmatch(m[1]); b != nil {
				for _, alt := range strings.Split(b[2], ",") {
					names = append(names, b[1]+alt+b[3])
				}
			} else {
				names = append(names, m[1])
			}
		}
		for _, name := range names {
			if !strings.HasPrefix(name, "dl_") {
				continue
			}
			doc.add(name, "", "")
			for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
				key, values, _ := strings.Cut(m[1], "=")
				doc.add(name, key, "")
				for _, v := range strings.Split(values, "\x00") {
					doc.add(name, key, strings.Trim(v, `"`))
				}
			}
		}
	}
	if len(doc) == 0 {
		t.Fatalf("no metric table in %s", path)
	}
	return doc
}

// scrape reads the dl_* families of one /metrics page, with the label
// keys and values their series carry (a histogram's le excluded).
func scrape(t *testing.T, h http.Handler, into families) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", w.Code, w.Body)
	}
	family := ""
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(rest, " ")
			if strings.HasPrefix(family, "dl_") {
				into.add(family, "", "")
			}
			continue
		}
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(family, "dl_") {
			continue
		}
		if _, labels, ok := strings.Cut(line, "{"); ok {
			for _, m := range labelPair.FindAllStringSubmatch(labels, -1) {
				if m[1] != "le" {
					into.add(family, m[1], m[2])
				}
			}
		}
	}
}

// TestREADMEMetricTable: every dl_* family a coordinator (adaptive,
// with a conceptual engine, over a remote and a local cluster) and a
// durable, cached node register is in the README's metric table with
// the labels it carries, and the table names nothing they do not
// register — the documentation cannot drift from the registry.
func TestREADMEMetricTable(t *testing.T) {
	documented := readmeMetrics(t, "../../README.md")

	nodeReg := obs.NewRegistry()
	oplog, err := persist.OpenOpLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ns := server.NewNodeServer(ir.NewIndex(), &server.NodeConfig{
		Metrics: nodeReg,
		Cache:   core.NewQueryCache(8),
		OpLog:   oplog,
	})
	srv := httptest.NewServer(ns.Handler())
	t.Cleanup(func() {
		srv.Close()
		ns.Close()
		oplog.Close()
	})

	coReg := obs.NewRegistry()
	remote, err := buildCluster("remote", srv.URL, 0, 1, 0, 5*time.Second, 0, coReg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := buildCluster("local", "", 1, 1, 0, 5*time.Second, 8, coReg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewAusOpen(site.Generate(1))
	if err != nil {
		t.Fatal(err)
	}
	co := server.NewCoordinator(map[string]*dist.Cluster{"remote": remote, "local": local}, &server.CoordinatorConfig{
		Metrics: coReg,
		Engine:  eng,
		SLO:     slo.New(slo.Config{Target: time.Second, MaxBudget: 4}),
	})
	h := co.Handler()
	// A document and a budgeted search on the remote node register the
	// series that appear only once fragments exist.
	for _, req := range []struct{ path, body string }{
		{"/add/stream", `{"index":"remote","text":"melbourne champion trophy"}`},
		{"/search?frag=1&frags=4", `{"index":"remote","query":"champion","n":5}`},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", req.path, w.Code, w.Body)
		}
	}

	registered := families{}
	scrape(t, h, registered)
	scrape(t, ns.Handler(), registered)

	for _, name := range sortedKeys(registered) {
		doc, ok := documented[name]
		if !ok {
			t.Errorf("%s is registered but not in the README metric table", name)
			continue
		}
		for key, values := range registered[name] {
			want, ok := doc[key]
			if !ok {
				t.Errorf("%s carries label %q, the README table lists %v", name, key, sortedKeys(doc))
				continue
			}
			for v := range values {
				if len(want) > 0 && !want[v] {
					t.Errorf("%s{%s=%q}: the README table lists only %v", name, key, v, sortedKeys(want))
				}
			}
		}
		for key := range doc {
			if _, ok := registered[name][key]; !ok {
				t.Errorf("the README table gives %s a label %q it does not carry", name, key)
			}
		}
	}
	for _, name := range sortedKeys(documented) {
		if _, ok := registered[name]; !ok {
			t.Errorf("the README table lists %s, which nothing registers", name)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
