package main

import (
	"bytes"
	"fmt"
)

// sizes fixes the inputs. full is what BENCHMARK.json describes; quick
// is the smoke test's: the same code paths on a corpus that loads in
// milliseconds.
type sizes struct {
	Docs        int // preloaded corpus (documents or articles)
	TermsPerDoc int
	Vocab       int
	ColdPool    int // distinct search_cold queries; far more than one run sends
	HotPool     int // distinct search_hot_budget queries; fits every cache
	StreamDocs  int // documents per ingest_stream request
	IngestPool  int // distinct documents ingest_stream cycles through
	MixedBatch  int // articles per mixed_rw stream
	Players     int // synthetic players of the core.* join probes
	Probes      int // correctness probe queries after loading
	WarmReads   int // warm-up requests before a timed phase
}

var (
	fullSizes = sizes{
		Docs: 20000, TermsPerDoc: 80, Vocab: 20000,
		ColdPool: 200000, HotPool: 64,
		StreamDocs: 512, IngestPool: 40 * 512, MixedBatch: 16,
		Players: 500, Probes: 32, WarmReads: 100,
	}
	quickSizes = sizes{
		Docs: 500, TermsPerDoc: 80, Vocab: 2000,
		ColdPool: 4000, HotPool: 64,
		StreamDocs: 64, IngestPool: 10 * 64, MixedBatch: 16,
		Players: 40, Probes: 8, WarmReads: 20,
	}
)

const (
	topN    = 10 // n of every /search
	hotFrag = 2  // /search?frag=2: two of the eight default fragments

	// mixed_rw is an open loop at fixed rates: one writer connection and
	// one reader connection. Four reads in five are /search, the fifth a
	// /query.
	mixedReadRate  = 20.0 // requests per second
	mixedWriteRate = 1.0  // streams per second
	mixedQueryEach = 5
	// The open loop measures -seconds in every round of a run, a closed
	// loop a third of it. Its rates cannot rise without a growing backlog
	// on the one reader connection, so in the same time it collects a
	// ninth of a closed loop's samples; over -seconds in all, its mean
	// and median differ by 10-18 % between runs of one commit.

	// ingestStreamsPerSecond sizes ingest_stream: it loads a stated
	// number of documents, 20 streams per second of -seconds, and reports
	// how long that took. A timed loop would stop at a different index
	// size in every run, and the index's growth steps (hundreds of ms
	// each, rarer as it grows) would land inside one run and outside the
	// next.
	ingestStreamsPerSecond = 20.0
)

type opKind int

const (
	opSearch opKind = iota
	opQuery
	opStream
)

func (k opKind) String() string { return [...]string{"search", "query", "stream"}[k] }

// op is one request of a workload.
type op struct {
	kind  opKind
	text  string // search: the query words; query: the query source
	frag  int    // search: fragment budget, 0 = exact
	body  []byte // stream: the NDJSON
	docs  int    // stream: documents carried
	bytes int    // stream: bytes of document text carried
}

// workload is a named traffic mix with its inputs, a pure function of
// (name, seed, sizes).
type workload struct {
	name string
	topo topology
	// clients is the closed-loop client count of the untraced run; 0
	// marks the open loop, which has one reader and one writer.
	clients int

	preload      []byte // one /add/stream body loaded during set-up
	preloadDocs  int
	preloadBytes int

	warm []op // sent once, in order, at the end of set-up

	// closed returns request i of a closed-loop client. perSecond, when
	// set, fixes the work instead of the time: the client sends
	// perSecond × -seconds requests and stops.
	closed    func(client, clients, i int) op
	perSecond float64
	// read and write return the i-th scheduled request of the open
	// loop's reader and writer.
	read, write func(i int) op

	// probe checks the loaded cluster against a single in-process index.
	probeQueries []string
	ref          *refIndex
	refTitle     func(doc uint64) string // T-engine: the title /query returns for a reference oid
	// searchFrag is the fragment budget of the workload's searches, for
	// the probes that replay them.
	searchFrag int
	// probeSearches are the queries the layer probes replay.
	probeSearches []string
}

var workloadNames = []string{"search_cold", "search_hot_budget", "ingest_stream", "mixed_rw"}

var workloadWhy = map[string]string{
	"search_cold":       "closed loop, 2 clients: exact /search n=10, 2-4 Zipf terms, no query repeats, lib20k preloaded; most ir scoring per request and every cache missed",
	"search_hot_budget": "closed loop, 2 clients: /search?frag=2 (2 of 8 fragments) over 64 recurring queries; a quarter of the ir work, so server + dist + persist wire dominate",
	"ingest_stream":     "closed loop, 1 connection: 20 x seconds back-to-back POST /add/stream of 512 documents into an empty cluster; NDJSON decode, fan-out, op-log fsync, ir add",
	"mixed_rw":          "open loop, 2 connections on T-engine, 3 x seconds: 20 reads/s (4 in 5 /search, 1 in 5 /query) beside 1 stream/s of 16 new articles; reads pay ingest's invalidations",
}

func sumLen(ss []string) int {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	return n
}

// tail returns the last n queries of a pool, for warm-up: the timed
// phase walks the pool from the front and never reaches them.
func tail(pool []string, n int) []string { return pool[len(pool)-n:] }

func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{name: name}
	cold := queries(seed, streamQueries, sz, sz.ColdPool)
	switch name {
	case "search_cold", "search_hot_budget":
		w.topo, w.clients = topoIR, 2
		docs := corpus(seed, streamCorpus, sz, sz.Docs)
		w.preload, w.preloadDocs, w.preloadBytes = plainNDJSON(docs), len(docs), sumLen(docs)
		w.ref = newRefIndex(docs)
		pool := cold
		warm := tail(pool, sz.WarmReads)
		if name == "search_hot_budget" {
			pool = queries(seed, streamHot, sz, sz.HotPool)
			warm = append(pool[:len(pool):len(pool)], pool...) // every hot query twice
			w.searchFrag = hotFrag
		}
		for _, q := range warm {
			w.warm = append(w.warm, op{kind: opSearch, text: q, frag: w.searchFrag})
		}
		w.closed = func(client, clients, i int) op {
			return op{kind: opSearch, text: pool[(i*clients+client)%len(pool)], frag: w.searchFrag}
		}
		// Probes are exact whatever the workload's budget: only the
		// exact ranking has a single-index reference.
		w.probeQueries = tail(cold, sz.WarmReads+sz.Probes)[:sz.Probes]
		w.probeSearches = pool

	case "ingest_stream":
		w.topo, w.clients, w.perSecond = topoIR, 1, ingestStreamsPerSecond
		docs := corpus(seed, streamIngest, sz, sz.IngestPool)
		bodies := sz.IngestPool / sz.StreamDocs
		// Pre-render the bodies: the timed loop must not spend its one
		// connection's time building NDJSON.
		rendered := make([]op, bodies)
		for i := range rendered {
			part := docs[i*sz.StreamDocs : (i+1)*sz.StreamDocs]
			rendered[i] = op{kind: opStream, body: plainNDJSON(part), docs: len(part), bytes: sumLen(part)}
		}
		w.warm = []op{rendered[bodies-1], rendered[bodies-2]}
		w.closed = func(_, _, i int) op { return rendered[i%(bodies-2)] }
		w.probeSearches = cold

	case "mixed_rw":
		w.topo = topoEngine
		arts := articles(seed, streamArticles, sz, 0, sz.Docs)
		w.preload, w.preloadDocs = articleNDJSON(arts), len(arts)
		// Fresh articles are numbered after the preloaded ones, a batch
		// from its own random stream; batch 0 is the warm-up's.
		batch := func(i int) []article {
			return articles(seed, streamFresh+i, sz, sz.Docs+i*sz.MixedBatch, sz.MixedBatch)
		}
		bodies := func(as []article) []string {
			out := make([]string, len(as))
			for i, a := range as {
				out[i] = a.Body
			}
			return out
		}
		w.preloadBytes = sumLen(bodies(arts))
		// The probes run on the warmed-up cluster, so the reference holds
		// the warm-up's batch too. It numbers article i as oid i+1.
		known := append(arts[:len(arts):len(arts)], batch(0)...)
		w.ref = newRefIndex(bodies(known))
		w.refTitle = func(doc uint64) string { return known[doc-1].Title }
		// Four reads in five are searches, the fifth a query.
		readOp := func(i int, q string) op {
			if i%mixedQueryEach == mixedQueryEach-1 {
				return op{kind: opQuery, text: containsQuery(q)}
			}
			return op{kind: opSearch, text: q}
		}
		for i, q := range tail(cold, sz.WarmReads) {
			w.warm = append(w.warm, readOp(i, q))
		}
		w.read = func(i int) op { return readOp(i, cold[i%(len(cold)-sz.WarmReads-sz.Probes)]) }
		w.write = func(i int) op {
			as := batch(i)
			return op{kind: opStream, body: articleNDJSON(as), docs: len(as), bytes: sumLen(bodies(as))}
		}
		w.warm = append(w.warm, w.write(0))
		w.probeQueries = tail(cold, sz.WarmReads+sz.Probes)[:sz.Probes]
		w.probeSearches = cold

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// requestSequence renders the first n requests a run sends, for the
// determinism test.
func (w *workload) requestSequence(n int) []byte {
	var b bytes.Buffer
	emit := func(o op) { fmt.Fprintf(&b, "%s %d %s %s\n", o.kind, o.frag, o.text, o.body) }
	for _, o := range w.warm {
		emit(o)
	}
	for i := 0; i < n; i++ {
		if w.clients > 0 {
			for c := 0; c < w.clients; c++ {
				emit(w.closed(c, w.clients, i))
			}
		} else {
			emit(w.read(i))
			emit(w.write(i + 1))
		}
	}
	return b.Bytes()
}
