package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dlsearch/internal/dist"
)

// streamLines posts an NDJSON body to /add/stream and decodes the
// response lines: per-line records first, the summary last.
func streamLines(t *testing.T, h http.Handler, body string) ([]StreamResultLine, StreamSummaryLine) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/add/stream", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var recs []StreamResultLine
	var sum StreamSummaryLine
	sawSummary := false
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("output after the summary line: %s", sc.Text())
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Summary {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var rec StreamResultLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	return recs, sum
}

// The stream tests' bodies, shared with FuzzAddStream as seeds.
const (
	streamOutcomesBody = `{"index":"articles","text":"federer wins the final"}
{"index":"nope","text":"lost"}
{"index":"articles"}

{"index":"articles","text":"rally at the net"}
`
	streamMalformedBody = `{"index":"articles","text":"good line"}
{"index":"articles", busted
{"index":"articles","text":"never reached"}
`
	streamExplicitOidBody  = `{"index":"articles","doc":100,"url":"u100","text":"pinned oid"}` + "\n"
	streamDuplicateOidBody = `{"index":"articles","doc":7,"url":"a","text":"first version"}
{"index":"articles","doc":7,"url":"b","text":"second version"}
`
	streamEngineLinesBody = `{"webspace":{"URL":"u","Objects":[{"Class":"Player","ID":"p1"}]}}
{"index":"articles","owner":"Player:p1","text":"x"}
`
)

// TestAddStreamOutcomes: semantic per-line errors are reported and the
// stream continues; searchable content lands in the cluster.
func TestAddStreamOutcomes(t *testing.T) {
	_, h := testCoordinator(t, nil)
	recs, sum := streamLines(t, h, streamOutcomesBody)
	if sum.Lines != 4 || sum.Committed != 2 || sum.Errors != 2 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	byLine := map[int]StreamResultLine{}
	for _, r := range recs {
		byLine[r.Line] = r
	}
	if r := byLine[2]; r.Error != "unknown index: nope" {
		t.Fatalf("line 2 = %+v", r)
	}
	if r := byLine[3]; r.Error != "missing text" {
		t.Fatalf("line 3 = %+v", r)
	}
	// The blank separator keeps its line number: the last document is
	// on file line 5, and the summary counts 4 processed lines.
	for _, line := range []int{1, 5} {
		r := byLine[line]
		if r.Error != "" || r.Committed == 0 || r.Doc == 0 {
			t.Fatalf("line %d = %+v", line, r)
		}
	}
	// The committed documents are searchable.
	w := postJSON(t, h, "/search", `{"index":"articles","query":"federer","n":5}`)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"results"`) {
		t.Fatalf("search after stream = %d: %s", w.Code, w.Body)
	}
}

// TestAddStreamStopsOnMalformedLine: broken framing reports the line
// and stops — later lines are never applied.
func TestAddStreamStopsOnMalformedLine(t *testing.T) {
	_, h := testCoordinator(t, nil)
	recs, sum := streamLines(t, h, streamMalformedBody)
	if sum.Lines != 2 || sum.Committed != 1 || sum.Errors != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	found := false
	for _, r := range recs {
		if r.Line == 2 {
			found = true
			if !strings.HasPrefix(r.Error, "malformed JSON: ") {
				t.Fatalf("line 2 error = %q", r.Error)
			}
		}
		if r.Line > 2 {
			t.Fatalf("line after the malformed one was processed: %+v", r)
		}
	}
	if !found {
		t.Fatal("no record for the malformed line")
	}
}

// TestAddStreamExplicitOids: lines may pin their own document oids.
func TestAddStreamExplicitOids(t *testing.T) {
	_, h := testCoordinator(t, nil)
	recs, sum := streamLines(t, h, streamExplicitOidBody)
	if sum.Committed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(recs) != 1 || recs[0].Doc != 100 {
		t.Fatalf("recs = %+v", recs)
	}
}

// TestAddStreamDuplicateOidInWindow: two lines carrying the same oid
// inside one flush window each keep their own outcome record — the
// pending batch is flushed at the repeat instead of letting the two
// lines collide in the flush's oid→line correlation.
func TestAddStreamDuplicateOidInWindow(t *testing.T) {
	_, h := testCoordinator(t, nil)
	recs, sum := streamLines(t, h, streamDuplicateOidBody)
	if sum.Committed != 2 || sum.Errors != 0 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %+v, want one record per line", recs)
	}
	for i, r := range recs {
		if r.Line != i+1 || r.Doc != 7 || r.Committed == 0 || r.Error != "" {
			t.Fatalf("rec %d = %+v", i, r)
		}
	}
}

// TestAddStreamEngineLinesRequireEngine: webspace and owner lines on a
// coordinator without an engine fail per line, not per request.
func TestAddStreamEngineLinesRequireEngine(t *testing.T) {
	_, h := testCoordinator(t, nil)
	recs, sum := streamLines(t, h, streamEngineLinesBody)
	if sum.Errors != 2 || sum.Committed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, r := range recs {
		if r.Error != "no conceptual engine configured" {
			t.Fatalf("rec = %+v", r)
		}
	}
}

// FuzzAddStream feeds arbitrary bodies to /add/stream on a coordinator
// over a 2-node in-process cluster. Whatever the bytes, the answer is
// 200 with one JSON value per line and a single summary last; nothing
// after the line that broke framing is processed; every record lands in
// exactly one summary bucket; every committed line names the oid it was
// indexed under; and the cluster holds exactly the documents the
// error-free records name.
func FuzzAddStream(f *testing.F) {
	for _, seed := range []string{
		streamOutcomesBody,
		streamMalformedBody,
		streamExplicitOidBody,
		streamDuplicateOidBody,
		streamEngineLinesBody,
		// An /add body: one line without a trailing newline.
		`{"index":"articles","doc":3,"url":"u3","text":"melbourne champion"}`,
		// A repeated oid, auto-assigned around it.
		`{"text":"first"}` + "\n" + `{"doc":1,"text":"again"}` + "\n" + `{"text":"next"}` + "\n",
		// A line over the 64 KiB per-line floor, then one never read.
		`{"text":"` + strings.Repeat("x ", 40<<10) + `"}` + "\n" + `{"text":"after"}` + "\n",
		// An explicit oid at the top of the oid space, then an
		// auto-assigned one that must not wrap to the nil oid.
		`{"doc":18446744073709551615,"text":"last"}` + "\n" + `{"text":"wraps"}` + "\n",
		// A malformed line.
		"{\"text\":\"ok\"}\n{\"text\":\n{\"text\":\"never\"}\n",
	} {
		f.Add(seed)
	}
	stops := func(e string) bool {
		return strings.HasPrefix(e, "malformed JSON: ") || strings.HasPrefix(e, "read: ") ||
			strings.Contains(e, "exceeds the per-line cap")
	}
	f.Fuzz(func(t *testing.T, body string) {
		cluster := dist.NewCluster(2, nil)
		co := NewCoordinator(map[string]*dist.Cluster{"articles": cluster}, &CoordinatorConfig{MaxBody: 512})
		recs, sum := streamLines(t, co.Handler(), body)
		stop := 0
		for _, r := range recs {
			if stops(r.Error) {
				stop = r.Line
			}
		}
		oids := map[uint64]bool{}
		for _, r := range recs {
			if stop > 0 && r.Line > stop {
				t.Fatalf("line %d processed after the stream stopped at line %d: %+v", r.Line, stop, r)
			}
			if r.Error == "" {
				if r.Doc == 0 {
					t.Fatalf("committed line without an oid: %+v", r)
				}
				oids[r.Doc] = true
			}
		}
		if n := sum.Committed + sum.Degraded + sum.Failed + sum.Errors; n != len(recs) {
			t.Fatalf("summary %+v accounts for %d records, got %d", sum, n, len(recs))
		}
		if n := cluster.DocCount(); n != len(oids) {
			t.Fatalf("cluster holds %d documents, error-free records name %d", n, len(oids))
		}
	})
}
