package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dlsearch/internal/core"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/site"
)

// fastStreamLines are lines decodeStreamLine must decode itself: the
// shapes the benchmark's generator writes (a bare text line, an owner
// line, an explicit-oid line) and their whitespace and key variants.
var fastStreamLines = []string{
	`{"text":"melbourne champion trophy"}`,
	`{"index":"articles","owner":"Article:a000001","text":"rally at the net"}`,
	`{"index":"a","doc":17,"url":"u17","text":"pinned oid"}`,
	` { "doc" : 0 , "text" : "spaced" } `,
	"{\t\"text\":\"tabs\"\r}",
	`{"text":"first","text":"last wins"}`,
	`{"doc":18446744073709551615,"text":"top of the oid space"}`,
	`{}`,
	`{"text":""}`,
	"{\"text\":\"printable ~ ascii, with a DEL \x7f\"}",
}

// deferredStreamLines are lines decodeStreamLine must hand to
// json.Unmarshal: other shapes, strings with an escape or a byte
// outside printable ASCII, and every malformed line.
var deferredStreamLines = []string{
	`{"webspace":{"URL":"u","Objects":[{"Class":"Player","ID":"p1"}]}}`,
	`{"Text":"case-folded key"}`,
	`{"te\u0078t":"escaped key"}`,
	`{"text":"x","extra":1}`,
	`{"text":null}`,
	`{"text":true}`,
	`{"text":5}`,
	`{"doc":"5","text":"x"}`,
	`{"doc":-1,"text":"x"}`,
	`{"doc":1.0,"text":"x"}`,
	`{"doc":1e3,"text":"x"}`,
	`{"doc":01,"text":"x"}`,
	`{"doc":18446744073709551616,"text":"x"}`,
	`{"text":"caf\u00e9 \u2014 \ud83c\udfbe","url":"d\/1"}`,
	`{"text":"quote \" backslash \\ slash \/ \b\f\n\r\t"}`,
	"{\"text\":\"caf\u00e9 raw utf-8\"}",
	`{"text":"lone \ud800 surrogate, then \udc00 low"}`,
	"{\"text\":\"invalid \xff utf-8 \xed\xa0\x80\"}",
	"{\"text\":\"raw \x01 control\"}",
	`{"text":"bad escape \x"}`,
	`{"text":"short \u12"}`,
	`{"text":"x"}]`,
	`{"text":"x"}{"text":"y"}`,
	`{"text":"x",}`,
	`{"text":"x"`,
	`{"text" "x"}`,
	`["text"]`,
	``,
	`  `,
	`{"index":"articles", busted`,
}

func TestDecodeStreamLineFastPath(t *testing.T) {
	for _, line := range fastStreamLines {
		var fast, slow StreamLine
		if !decodeStreamLine([]byte(line), &fast) {
			t.Errorf("deferred %q, want the fast path", line)
			continue
		}
		if err := json.Unmarshal([]byte(line), &slow); err != nil {
			t.Errorf("json.Unmarshal(%q): %v", line, err)
			continue
		}
		if fast != slow {
			t.Errorf("%q: fast %+v, encoding/json %+v", line, fast, slow)
		}
	}
	for _, line := range deferredStreamLines {
		var sl StreamLine
		if decodeStreamLine([]byte(line), &sl) {
			t.Errorf("decoded %q as %+v, want a deferral", line, sl)
		}
	}
}

// FuzzStreamLineDecode holds the fast path to encoding/json: for any
// bytes it either defers, or json.Unmarshal accepts the same bytes
// and yields the identical StreamLine with no webspace document.
func FuzzStreamLineDecode(f *testing.F) {
	for _, line := range fastStreamLines {
		f.Add([]byte(line))
	}
	for _, line := range deferredStreamLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var fast StreamLine
		if !decodeStreamLine(raw, &fast) {
			return
		}
		var slow StreamLine
		if err := json.Unmarshal(raw, &slow); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", raw, err)
		}
		if slow.Webspace != nil || !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%q: fast %+v, encoding/json %+v", raw, fast, slow)
		}
	})
}

// encoderBytes is what json.Encoder.Encode writes for v.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAddStreamResponseBytes: every line of an /add/stream response is
// byte for byte what json.Encoder writes for the record or summary it
// decodes to, over the stream tests' bodies, the README example and
// lines whose error text needs escaping.
func TestAddStreamResponseBytes(t *testing.T) {
	eng, err := core.NewAusOpen(site.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(map[string]*dist.Cluster{
		"articles":       dist.NewCluster(2, nil),
		"Player.history": dist.NewCluster(1, nil),
	}, &CoordinatorConfig{Engine: eng, MaxBody: 512})
	h := co.Handler()
	var all bytes.Buffer
	for _, body := range []string{
		streamOutcomesBody,
		streamMalformedBody,
		streamExplicitOidBody,
		streamDuplicateOidBody,
		streamEngineLinesBody,
		`{"index":"articles","doc":3,"url":"u3","text":"melbourne champion"}`,
		`{"text":"` + strings.Repeat("x ", 40<<10) + `"}` + "\n" + `{"text":"after"}` + "\n",
		`{"index":"Player.history","doc":7,"url":"d7","text":"a plain IR document"}
{"webspace":{"URL":"u1","Objects":[{"Class":"Player","ID":"p1","Attrs":{"name":"Ada","gender":"female"}}]}}
{"index":"Player.history","owner":"Player:p1","text":"winner of the open"}
`,
		`{"index":"<a&b\"\u2028\u2029>","text":"x"}
{"index":"articles","owner":"Player:<nobody & \"none\">","text":"x"}
{"index":"articles","text":"x"}<
`,
		"{\"text\":\"raw \x01 control\"}\n",
	} {
		req := httptest.NewRequest(http.MethodPost, "/add/stream", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		all.Write(w.Body.Bytes())
		lines := bytes.SplitAfter(w.Body.Bytes(), []byte("\n"))
		if len(lines) < 2 || len(lines[len(lines)-1]) != 0 {
			t.Fatalf("response to %.60q is not newline-terminated NDJSON: %s", body, w.Body)
		}
		for _, line := range lines[:len(lines)-1] {
			var v any = new(StreamResultLine)
			if bytes.HasPrefix(line, []byte(`{"summary":`)) {
				v = new(StreamSummaryLine)
			}
			if err := json.Unmarshal(line, v); err != nil {
				t.Fatalf("response line %q: %v", line, err)
			}
			if want := encoderBytes(t, v); !bytes.Equal(line, want) {
				t.Errorf("response line\n got %s\nwant %s", line, want)
			}
		}
	}
	for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`, `\"`, `\u2028`, `\u2029`, `\\x01`} {
		if !bytes.Contains(all.Bytes(), []byte(esc)) {
			t.Errorf("no response line carries %s: the escaping went unchecked", esc)
		}
	}
}

// TestAddStreamPreloadShape streams a few thousand auto-oid text
// lines in one request through an HTTP coordinator over two node
// servers on the persistent wire transport, as a benchmark preload
// does, and holds the answer to the whole corpus: a clean summary, one
// record per line, oids 1..N each once, and /stats counting N
// documents.
func TestAddStreamPreloadShape(t *testing.T) {
	const docs = 3000
	var nodes []dist.Node
	for i := 0; i < 2; i++ {
		ns := NewNodeServer(ir.NewIndex(), nil)
		ts := httptest.NewServer(ns.Handler())
		t.Cleanup(func() { ts.Close(); ns.Close() })
		rn := dist.NewRemoteNode(ts.URL, nil)
		rn.SetCodec(dist.CodecWire)
		t.Cleanup(func() { rn.SetCodec(dist.CodecBinary) })
		nodes = append(nodes, rn)
	}
	co := NewCoordinator(map[string]*dist.Cluster{"lib": dist.NewClusterOf(nodes, nil)}, nil)
	cot := httptest.NewServer(co.Handler())
	defer cot.Close()

	// The body is written while the response streams back, as a
	// client piping a corpus does.
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriter(pw)
		for i, text := range streamCorpus(docs) {
			fmt.Fprintf(bw, `{"text":"%s %d"}`+"\n", text, i)
		}
		pw.CloseWithError(bw.Flush())
	}()
	resp, err := http.Post(cot.URL+"/add/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/add/stream = %d", resp.StatusCode)
	}
	seenLine := make([]bool, docs+1)
	seenOID := make([]bool, docs+1)
	records := 0
	var sum StreamSummaryLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"summary":`)) {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var rec StreamResultLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		records++
		if rec.Error != "" || rec.Committed != 1 || rec.Line < 1 || rec.Line > docs || seenLine[rec.Line] ||
			rec.Doc < 1 || rec.Doc > docs || seenOID[rec.Doc] {
			t.Fatalf("record %+v: want line and oid in 1..%d, each once, committed", rec, docs)
		}
		seenLine[rec.Line], seenOID[rec.Doc] = true, true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sum.Summary || sum.Lines != docs || sum.Committed != docs || sum.Degraded+sum.Failed+sum.Errors != 0 || records != docs {
		t.Fatalf("summary %+v over %d records, want %d committed lines", sum, records, docs)
	}
	st := getStats(t, co.Handler()).Indexes["lib"]
	if st.Docs != docs {
		t.Fatalf("/stats counts %d documents, want %d", st.Docs, docs)
	}
	for _, g := range st.Groups {
		for _, rs := range g.Replicas {
			if rs.WireCodec != "wire" || rs.WireBytesOut == 0 {
				t.Fatalf("partition %d replica %+v: the batches did not ride the wire connection", g.Partition, rs)
			}
		}
	}
}

// streamCorpus returns n short document texts over a small vocabulary.
func streamCorpus(n int) []string {
	words := []string{"match", "play", "court", "seles", "trophy", "champion", "volley", "rally"}
	out := make([]string, n)
	for i := range out {
		out[i] = words[i%len(words)] + " " + words[(i/len(words))%len(words)] + " " + words[(i*7)%len(words)]
	}
	return out
}
