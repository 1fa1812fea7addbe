package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/webspace"
)

// DefaultStreamFlush is the per-index batch size of POST /add/stream
// when the config does not override it.
const DefaultStreamFlush = 256

// StreamLine is one NDJSON line of POST /add/stream, the coordinator's
// only write endpoint. Three kinds of line feed the two backend kinds:
//
//   - {"index":..., "doc":N, "url":..., "text":...} — a plain IR
//     document for the named cluster (doc 0 auto-assigns the next oid
//     of the index's sequence; an empty index selects the sole one).
//   - {"webspace": {...}} — one conceptual webspace.Document, stored
//     in the coordinator's engine (requires an engine). The engine's
//     access paths take it in place, so /query sees it at once.
//   - {"index":..., "owner":"Class:id", "text":...} — content owned
//     by a conceptual object: the oid is resolved from the owner's
//     qualified id, so the cluster's document ids line up with the
//     engine's object element oids (requires an engine, and the
//     owner's webspace line must precede it in the stream, anywhere
//     before it: interleaving the two kinds costs nothing).
//
// The request body is NOT subject to the coordinator's MaxBody cap —
// the whole point of streaming ingest. Memory is bounded per line
// (MaxBody each) and per index (StreamFlush buffered documents).
type StreamLine struct {
	Index    string             `json:"index,omitempty"`
	Doc      uint64             `json:"doc,omitempty"`
	URL      string             `json:"url,omitempty"`
	Owner    string             `json:"owner,omitempty"`
	Text     string             `json:"text,omitempty"`
	Webspace *webspace.Document `json:"webspace,omitempty"`
}

// StreamResultLine is one NDJSON line of the response: the outcome of
// one input line, correlated by its 1-based line number in the request
// body (blank separator lines count, but never produce a record). IR
// documents
// report their outcome when their batch flushes (so records are not
// necessarily in line order); conceptual documents report immediately
// with Committed 1. Error is set for a line that was not applied —
// the stream continues past semantic per-line errors and stops only
// on a malformed line (framing can no longer be trusted) — and for a
// degraded one.
//
// Ingest is idempotent per oid at the nodes, so re-posting a line with
// the oid its record reported is always safe: a replica that already
// applied it skips it, one that missed it applies it. Committed 0 with
// an Error means no replica acknowledged — retry with the same oid;
// Degraded means 0 < Committed < Replicas — the document is already
// searchable, and a retry (or the cluster's anti-entropy pass) heals
// the lagging replicas.
type StreamResultLine struct {
	Line      int    `json:"line"`
	Doc       uint64 `json:"doc,omitempty"`
	Replicas  int    `json:"replicas,omitempty"`
	Committed int    `json:"committed,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
	Error     string `json:"error,omitempty"`
}

// StreamSummaryLine is the final NDJSON line of the response. Lines
// counts the non-blank input lines processed (blank separators are
// skipped, though they still advance the line numbering).
type StreamSummaryLine struct {
	Summary   bool `json:"summary"`
	Lines     int  `json:"lines"`
	Committed int  `json:"committed"`
	Degraded  int  `json:"degraded"`
	Failed    int  `json:"failed"`
	Errors    int  `json:"errors"`
}

// streamWindow is one index's flush window of POST /add/stream: the
// IR documents queued for its next batch, in line order, with their
// line numbers and each queued oid's position among them.
type streamWindow struct {
	docs  []dist.Doc
	lines []int
	at    map[bat.OID]int
}

// addStream serves POST /add/stream: NDJSON ingest decoded one line
// at a time with per-index batching, reporting per-line outcomes as
// NDJSON back. See StreamLine for the accepted line kinds.
func (co *Coordinator) addStream(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	flushEvery := co.cfg.StreamFlush
	if flushEvery <= 0 {
		flushEvery = DefaultStreamFlush
	}
	// The response streams outcome records while the request body is
	// still being consumed; without full duplex the HTTP/1.x server
	// closes the body on the first response flush, killing the stream
	// mid-corpus ("invalid Read on closed Body").
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		enc.Encode(v)
	}

	sc := bufio.NewScanner(r.Body)
	maxLine := int(co.cfg.MaxBody)
	if maxLine < 64*1024 {
		maxLine = 64 * 1024
	}
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)

	var sum StreamSummaryLine
	windows := map[string]*streamWindow{}

	// flushIndex commits one index's queued documents in one cluster
	// round-trip and emits their outcome records in line order: each
	// record fills its document's slot of the window.
	flushIndex := func(name string) {
		win := windows[name]
		if win == nil || len(win.docs) == 0 {
			return
		}
		recs := make([]StreamResultLine, len(win.docs))
		for i, line := range win.lines {
			recs[i].Line = line
		}
		for _, p := range co.indexes[name].AddBatchResults(r.Context(), win.docs) {
			for _, oid := range p.Docs {
				rec := &recs[win.at[oid]]
				rec.Doc, rec.Replicas, rec.Committed = uint64(oid), p.Replicas, p.Committed
				switch {
				case p.Err == nil:
					sum.Committed++
				case p.Failed():
					sum.Failed++
					rec.Error = "node unavailable: " + p.Err.Error()
				default:
					// Some replicas committed: searchable but degraded.
					sum.Degraded++
					rec.Degraded = true
					rec.Error = p.Err.Error()
				}
			}
		}
		win.docs = win.docs[:0]
		win.lines = win.lines[:0]
		clear(win.at)
		for _, rec := range recs {
			emit(rec)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			// Blank separator lines keep their line number (so outcome
			// records match the client's file) but get no record.
			continue
		}
		sum.Lines++
		// The common flat line decodes without reflection; any other
		// line, malformed ones included, goes through encoding/json,
		// into its own StreamLine so that only this path pays its
		// escape to the heap.
		var sl StreamLine
		if !decodeStreamLine(raw, &sl) {
			slow := new(StreamLine)
			if err := json.Unmarshal(raw, slow); err != nil {
				// Malformed framing: report and stop — everything after
				// this byte offset is untrustworthy.
				sum.Errors++
				emit(StreamResultLine{Line: line, Error: "malformed JSON: " + err.Error()})
				break
			}
			sl = *slow
		}
		switch {
		case sl.Webspace != nil:
			if co.cfg.Engine == nil {
				sum.Errors++
				emit(StreamResultLine{Line: line, Error: "no conceptual engine configured"})
				continue
			}
			co.engineMu.Lock()
			err := co.cfg.Engine.AddDocument(sl.Webspace)
			co.engineMu.Unlock()
			if err != nil {
				sum.Errors++
				emit(StreamResultLine{Line: line, Error: err.Error()})
				continue
			}
			sum.Committed++
			emit(StreamResultLine{Line: line, Committed: 1})
		case sl.Text == "":
			sum.Errors++
			emit(StreamResultLine{Line: line, Error: "missing text"})
		default:
			cluster, name, err := co.index(sl.Index)
			if err != nil {
				sum.Errors++
				emit(StreamResultLine{Line: line, Error: err.Error()})
				continue
			}
			var doc bat.OID
			switch {
			case sl.Owner != "":
				if co.cfg.Engine == nil {
					sum.Errors++
					emit(StreamResultLine{Line: line, Error: "no conceptual engine configured"})
					continue
				}
				co.engineMu.RLock()
				oid, ok := co.cfg.Engine.DB.OIDOf(sl.Owner)
				co.engineMu.RUnlock()
				if !ok {
					sum.Errors++
					emit(StreamResultLine{Line: line, Error: "unknown owner: " + sl.Owner})
					continue
				}
				doc = oid
				if sl.URL == "" {
					sl.URL = sl.Owner
				}
				co.seqs[name].observe(doc)
			case sl.Doc != 0:
				doc = bat.OID(sl.Doc)
				co.seqs[name].observe(doc)
			default:
				if doc, err = co.seqs[name].assign(r.Context(), cluster); err != nil {
					sum.Errors++
					emit(StreamResultLine{Line: line, Error: "cannot assign oid: " + err.Error()})
					continue
				}
			}
			win := windows[name]
			if win == nil {
				win = &streamWindow{at: map[bat.OID]int{}}
				windows[name] = win
			}
			if _, queued := win.at[doc]; queued {
				// The oid is already queued in this flush window (the
				// same owner twice, or a repeated explicit doc id).
				// Flush first: batched together the two lines would
				// collide in the flush's oid→line correlation, and the
				// earlier one would lose its outcome record. Flushing
				// keeps one record per line and gives the later line
				// the node's ordinary re-posted-oid semantics.
				flushIndex(name)
			}
			win.at[doc] = len(win.docs)
			win.docs = append(win.docs, dist.Doc{OID: doc, URL: sl.URL, Text: sl.Text})
			win.lines = append(win.lines, line)
			if len(win.docs) >= flushEvery {
				flushIndex(name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		sum.Errors++
		msg := "read: " + err.Error()
		if err == bufio.ErrTooLong {
			msg = "line " + strconv.Itoa(line+1) + " exceeds the per-line cap of " +
				strconv.Itoa(maxLine) + " bytes"
		}
		emit(StreamResultLine{Line: line + 1, Error: msg})
	}
	// Flush the remaining batches in a deterministic order.
	names := make([]string, 0, len(windows))
	for name := range windows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		flushIndex(name)
	}
	co.streams.Add(1)
	// A degraded document is searchable through the replicas that
	// committed it, so it counts as added; a stream that left any line
	// rejected, failed or degraded counts as one error.
	if sum.Errors > 0 || sum.Failed > 0 || sum.Degraded > 0 {
		co.errs.Add(1)
	}
	co.adds.Add(uint64(sum.Committed + sum.Degraded))
	sum.Summary = true
	emit(sum)
	if flusher != nil {
		flusher.Flush()
	}
}
