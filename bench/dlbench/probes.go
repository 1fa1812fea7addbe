package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Probes time direct calls into one layer's exported functions with the
// workload's own inputs, right after the traced replay, while the
// in-process cluster is quiet. They give each layer a number of its own
// that no other layer's time is mixed into.

// timeEach runs f n times and returns the durations in ms.
func timeEach(n int, f func(i int) error) (series, error) {
	d := make(series, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		d = append(d, msSince(t))
	}
	return d, nil
}

func scale(v value, by float64) value { return value{v.V * by, v.N} }

// probeReps are the repetition counts; quick runs only need every
// probe to execute.
type probeReps struct{ search, wire, stats, core, join int }

func repsFor(quick bool) probeReps {
	if quick {
		return probeReps{search: 20, wire: 10, stats: 3, core: 5, join: 2}
	}
	return probeReps{search: 200, wire: 50, stats: 10, core: 30, join: 3}
}

func runProbes(ctx context.Context, env *env, w *workload, t *inproc) (values, error) {
	vs := values{}
	reps := repsFor(env.quick)
	sz := env.sz
	dir, err := os.MkdirTemp(env.paths.out, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	searches := w.probeSearches
	cold := queries(env.seed, streamQueries, sz, max(reps.search, sz.HotPool))
	hot := queries(env.seed, streamHot, sz, sz.HotPool)

	// series: the cluster without its HTTP front.
	out0, in0 := t.rpcBytes()
	d, err := timeEach(reps.search, func(i int) error { return t.searchDirect(ctx, searches[i%len(searches)], w.searchFrag) })
	if err != nil {
		return nil, fmt.Errorf("dist.search_direct: %w", err)
	}
	out1, in1 := t.rpcBytes()
	vs["dist.search_direct_ms"] = d.p50()
	vs["dist.rpc_bytes_out_per_search"] = value{float64(out1-out0) / float64(len(d)), len(d)}
	vs["dist.rpc_bytes_in_per_search"] = value{float64(in1-in0) / float64(len(d)), len(d)}
	if d, err = timeEach(reps.stats, func(int) error { return t.refreshStats(ctx) }); err != nil {
		return nil, fmt.Errorf("dist.global_stats: %w", err)
	}
	vs["dist.global_stats_ms"] = d.p50()

	// persist: the wire codec with the cluster's real statistics block.
	wp, err := t.newWireProbe(ctx, w.searchFrag)
	if err != nil {
		return nil, err
	}
	defer wp.release()
	bytes := 0
	d, _ = timeEach(reps.wire, func(i int) error { bytes = wp.encode(searches[i%len(searches)]); return nil })
	vs["persist.wire_search_req_bytes"] = value{float64(bytes), 1}
	vs["persist.wire_search_encode_us"] = scale(d.p50(), 1e3)
	if d, err = timeEach(reps.wire, func(int) error { return wp.decode(false) }); err != nil {
		return nil, err
	}
	vs["persist.wire_search_decode_us"] = scale(d.p50(), 1e3)
	if err := wp.decode(true); err != nil { // fill the cache
		return nil, err
	}
	if d, err = timeEach(reps.wire, func(int) error { return wp.decode(true) }); err != nil {
		return nil, err
	}
	vs["persist.wire_search_decode_cached_us"] = scale(d.p50(), 1e3)

	// persist: op log and snapshot of one partition of the corpus.
	part := corpus(env.seed, streamCorpus, sz, sz.Docs/nodeCount)
	partBytes := float64(sumLen(part))
	const logBatch = 256
	lp, err := newOplogProbe(filepath.Join(dir, "oplog"))
	if err != nil {
		return nil, err
	}
	if d, err = timeEach((len(part)+logBatch-1)/logBatch, func(i int) error {
		return lp.append(part[i*logBatch : min((i+1)*logBatch, len(part))])
	}); err != nil {
		return nil, err
	}
	vs["persist.oplog_append_ms"] = d.p50()
	vs["persist.oplog_fsync_ms"] = lp.fsyncMeanMs()
	logBytes, err := lp.closeAndSize()
	if err != nil {
		return nil, err
	}
	vs["persist.oplog_bytes_per_doc_byte"] = value{float64(logBytes) / partBytes, len(part)}
	start := time.Now()
	ix, err := lp.replay()
	if err != nil {
		return nil, err
	}
	vs["persist.oplog_replay_ms_per_10k"] = value{msSince(start) * 1e4 / float64(len(part)), len(part)}
	snap := filepath.Join(dir, "index.snap")
	start = time.Now()
	if err := saveSnapshot(snap, ix); err != nil {
		return nil, err
	}
	vs["persist.snapshot_save_ms"] = value{msSince(start), 1}
	start = time.Now()
	if _, err := loadSnapshot(snap); err != nil {
		return nil, err
	}
	vs["persist.snapshot_load_ms"] = value{msSince(start), 1}
	fi, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	vs["persist.snapshot_bytes_per_doc_byte"] = value{float64(fi.Size()) / partBytes, len(part)}

	// ir: scoring and indexing on that partition, no network, no log.
	p, err := newPartition(ix)
	if err != nil {
		return nil, err
	}
	postings := 0
	if d, err = timeEach(reps.search, func(i int) error {
		postings += p.exactPostings(cold[i])
		_, err := p.score(ctx, cold[i], 0)
		return err
	}); err != nil {
		return nil, err
	}
	vs["ir.score_exact_ms"] = d.p50()
	vs["ir.postings_exact_per_query"] = value{float64(postings) / float64(len(d)), len(d)}
	if _, err := p.score(ctx, hot[0], hotFrag); err != nil { // fragments the index
		return nil, err
	}
	before, quality := p.fragmentPostings(), series{}
	if d, err = timeEach(len(hot), func(i int) error {
		q, err := p.score(ctx, hot[i], hotFrag)
		quality = append(quality, q)
		return err
	}); err != nil {
		return nil, err
	}
	vs["ir.score_budget2_ms"] = d.p50()
	vs["ir.quality_budget2"] = quality.avg()
	vs["ir.postings_budget2_per_query"] = value{float64(p.fragmentPostings()-before) / float64(len(hot)), len(hot)}
	extra := corpus(env.seed, streamIngest, sz, sz.IngestPool)
	next, freeze := len(part)+1, series{}
	for i := 0; i < reps.stats; i++ {
		if err := p.addBatch(ctx, extra[i*sz.MixedBatch:(i+1)*sz.MixedBatch], next); err != nil {
			return nil, err
		}
		next += sz.MixedBatch
		start := time.Now()
		if err := p.freezeStats(ctx); err != nil {
			return nil, err
		}
		freeze = append(freeze, msSince(start))
	}
	vs["ir.stats_freeze_ms"] = freeze.p50()
	empty := newEmptyPartition()
	batches := min(4, sz.IngestPool/sz.StreamDocs)
	if d, err = timeEach(batches, func(i int) error {
		return empty.addBatch(ctx, extra[i*sz.StreamDocs:(i+1)*sz.StreamDocs], i*sz.StreamDocs+1)
	}); err != nil {
		return nil, err
	}
	vs["ir.add_us_per_doc"] = value{d.mean() * 1e3 / float64(sz.StreamDocs), batches * sz.StreamDocs}

	// query and core: the conceptual layer in one process.
	if d, err = timeEach(len(cold), func(i int) error { return parseQuery(containsQuery(cold[i])) }); err != nil {
		return nil, err
	}
	vs["query.parse_us"] = scale(d.avg(), 1e3)
	if err := coreProbes(env, reps, cold, vs); err != nil {
		return nil, err
	}
	return vs, nil
}

func coreProbes(env *env, reps probeReps, cold []string, vs values) error {
	sz := env.sz
	pe, err := newProbeEngine()
	if err != nil {
		return err
	}
	arts := articles(env.seed, streamArticles, sz, 0, sz.Docs)
	d, err := timeEach(len(arts), func(i int) error { return pe.addArticle(arts[i]) })
	if err != nil {
		return err
	}
	vs["core.add_document_us"] = scale(d.avg(), 1e3)
	// Objects first, owned content after: resolving an owner right after
	// an AddDocument rebuilds the engine's derived paths each time.
	pls := players(env.seed, sz, sz.Players, len(arts))
	for _, pl := range pls {
		if err := pe.addPlayer(pl); err != nil {
			return err
		}
	}
	for _, a := range arts {
		if err := pe.index(articleIndex, "Article:"+a.ID, a.Body); err != nil {
			return err
		}
	}
	for _, pl := range pls {
		if err := pe.index("Player.history", "Player:"+pl.ID, pl.History); err != nil {
			return err
		}
	}
	d, _ = timeEach(reps.stats, func(int) error { pe.warm(); return nil })
	vs["core.db_warm_ms"] = d.p50()
	rows := 0
	run := func(src string) error {
		n, err := pe.run(src)
		rows += n
		return err
	}
	if d, err = timeEach(reps.core, func(i int) error { return run(containsQuery(cold[i])) }); err != nil {
		return fmt.Errorf("core.query_contains: %w", err)
	}
	vs["core.query_contains_ms"] = d.p50()
	if d, err = timeEach(reps.core, func(i int) error {
		return run("SELECT p.name FROM Player p WHERE p.gender = 'female' AND contains(p.history, '" + firstTwo(cold[i]) + "') LIMIT 10")
	}); err != nil {
		return fmt.Errorf("core.query_restricted: %w", err)
	}
	vs["core.query_restricted_ms"] = d.p50()
	if d, err = timeEach(reps.join, func(i int) error {
		return run("SELECT p.name, a.title FROM Player p, Article a WHERE p.hand = 'left' AND Is_covered_in(p, a) AND contains(a.body, '" + firstTwo(cold[i]) + "') LIMIT 10")
	}); err != nil {
		return fmt.Errorf("core.query_join: %w", err)
	}
	vs["core.query_join_ms"] = d.p50()
	if rows == 0 {
		return fmt.Errorf("core probes: every query came back empty")
	}
	return nil
}
