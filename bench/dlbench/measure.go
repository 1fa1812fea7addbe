package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// rounds is how many times a run repeats the whole cycle — set a fresh
// cluster up, measure, crash it and recover. Latencies pool over the
// rounds; set-up, recovery, storage and memory report the median round,
// which one disturbed round cannot move.
const rounds = 3

// env is what every run of one dlbench invocation shares.
type env struct {
	paths paths
	bin   string
	hc    *http.Client
	sz    sizes
	seed  int64
	quick bool
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dlbench: "+format+"\n", args...)
}

// untraced is the outcome of one multi-process run.
type untraced struct {
	e2e       values
	client    values // the client.* layer metrics this run can give
	attempted int
	failed    int
}

// pollDocs waits until the coordinator reports want documents again.
func pollDocs(ctx context.Context, t *target, want int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, err := t.api.docCount(ctx, t.index)
		if err == nil && got == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("after restart the coordinator reports %d of %d acknowledged documents (%v)", got, want, err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// round is what one cycle of an untraced run measured.
type round struct {
	phase      phase
	setUpS     float64
	recoveryMs float64 // per 1000 documents
	stored     float64 // bytes per byte of document text
	rssMB      float64
	docs       int
}

// runRound sets one real cluster up, drives the timed phase against it
// and, with recovery, crashes and restarts its nodes.
func runRound(ctx context.Context, env *env, w *workload, d time.Duration, r int, recovery bool) (*round, error) {
	c, ld, setUpS, err := w.setUp(ctx, env)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	t := &target{api: &api{env.hc, "http://" + c.coord.addr}, index: w.topo.searchIndex()}
	if err := w.checkLoaded(ctx, t); err != nil {
		return nil, err
	}
	rd := &round{setUpS: setUpS, phase: w.run(ctx, t, w.clients, r, d)}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	docs, bytes := rd.phase.acked()
	ld.docs += docs
	ld.bytes += bytes
	rd.docs = ld.docs
	if err := checkDocs(ctx, t, ld.docs); err != nil {
		return nil, err
	}
	stored, err := c.dataBytes()
	if err != nil {
		return nil, err
	}
	rd.stored = float64(stored) / float64(ld.bytes)
	if recovery {
		// A process kill leaves the operating system's cache intact, so
		// this prices log replay, not whether fsync reached the device.
		start := time.Now()
		if err := c.crashNodes(ctx, w.name); err != nil {
			return nil, err
		}
		if err := pollDocs(ctx, t, ld.docs); err != nil {
			return nil, err
		}
		rd.recoveryMs = msSince(start) * 1000 / float64(ld.docs)
	}
	rd.rssMB, err = c.rssPeakMB()
	return rd, err
}

// runUntraced is the measurement every end-to-end metric comes from:
// real processes, no spans, no request ids. d is the timed length of
// the whole run, split evenly over the rounds; the open loop, whose
// rates cannot rise, runs d in every round (see workload.go).
func runUntraced(ctx context.Context, env *env, w *workload, d time.Duration, nRounds int, recovery bool) (*untraced, error) {
	if w.clients > 0 {
		d /= time.Duration(nRounds)
	}
	var ph phase
	var setUpS, recoveryMs, stored, rss series
	docs := 0
	for r := 0; r < nRounds; r++ {
		rd, err := runRound(ctx, env, w, d, r, recovery)
		if err != nil {
			return nil, err
		}
		ph.samples = append(ph.samples, rd.phase.samples...)
		ph.seconds += rd.phase.seconds
		setUpS, recoveryMs = append(setUpS, rd.setUpS), append(recoveryMs, rd.recoveryMs)
		stored, rss = append(stored, rd.stored), append(rss, rd.rssMB)
		docs += rd.docs
	}
	all, kinds := ph.byKind()
	if len(all) == 0 {
		return nil, errors.New("no request of the timed phase succeeded")
	}
	u := &untraced{e2e: values{}, client: values{}, attempted: len(ph.samples), failed: ph.failed()}
	u.e2e["setup_s"] = setUpS.p50()
	u.e2e["ops_s"] = value{float64(len(all)) / ph.seconds, len(all)}
	u.e2e["p50_ms"] = all.p50()
	u.e2e["mean_ms"] = all.avg()
	u.e2e["recovery_ms_per_kdoc"] = value{recoveryMs.p50().V, docs}
	u.e2e["stored_bytes_per_doc_byte"] = value{stored.p50().V, docs}
	u.e2e["rss_peak_mb"] = rss.p50()

	cl := u.client
	if s := kinds[opSearch]; len(s) > 0 {
		cl["client.search_ops_s"] = value{float64(len(s)) / ph.seconds, len(s)}
		cl["client.search_p50_ms"], cl["client.search_p95_ms"], cl["client.search_p99_ms"] = s.p50(), s.p95(), s.p99()
		cl["client.search_mean_ms"] = s.avg()
		var q series
		for _, sm := range ph.samples {
			if sm.ok && sm.kind == opSearch {
				q = append(q, sm.quality)
			}
		}
		cl["client.search_quality_mean"] = q.avg()
	}
	if s := kinds[opQuery]; len(s) > 0 {
		cl["client.query_p50_ms"], cl["client.query_p95_ms"], cl["client.query_mean_ms"] = s.p50(), s.p95(), s.avg()
	}
	if s := kinds[opStream]; len(s) > 0 {
		acked, _ := ph.acked()
		cl["client.ingest_docs_s"] = value{float64(acked) / ph.seconds, acked}
		cl["client.ingest_p50_ms"], cl["client.ingest_p95_ms"] = s.p50(), s.p95()
	}
	if w.clients == 0 {
		var late series
		for _, sm := range ph.samples {
			late = append(late, sm.lateMs)
		}
		cl["client.gen_late_max_ms"] = late.peak()
	}
	cl["client.fail_share"] = value{float64(u.failed) / float64(u.attempted), u.attempted}
	return u, nil
}

// runTraced replays the workload with one client per lane against the
// in-process topology, writes the span file, and runs the probes
// against the then quiet cluster.
func runTraced(ctx context.Context, env *env, w *workload, d time.Duration, u *untraced) (values, error) {
	rec := newRecorder()
	t, err := newInproc(env.paths, w.topo, rec)
	if err != nil {
		return nil, err
	}
	defer t.close()
	tg := &target{api: &api{env.hc, "http://" + t.addr}, index: w.topo.searchIndex(), rec: rec}
	if _, err := w.prepare(ctx, tg); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	if err := w.checkLoaded(ctx, tg); err != nil {
		return nil, fmt.Errorf("traced topology: %w", err)
	}
	rec.enable(true)
	ph := w.run(ctx, tg, 1, 0, d)
	rec.enable(false)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if n := ph.failed(); n > 0 {
		return nil, fmt.Errorf("traced replay: %d of %d requests failed", n, len(ph.samples))
	}
	spans := rec.snapshot()
	if err := writeSpans(filepath.Join(env.paths.out, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	st := analyse(spans)
	if st.perDocAdds > 0 {
		return nil, fmt.Errorf("traced replay: %d per-document Add RPCs — the node wrapper hides the batch capability", st.perDocAdds)
	}

	vs, err := runProbes(ctx, env, w, t)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range u.client {
		vs[k] = v
	}
	all, _ := ph.byKind()
	vs["client.traced_p50_ratio"] = value{all.p50().V / u.e2e["p50_ms"].V, len(all)}
	vs["client.http_self_ms"] = st.httpSelf.p50()
	vs["server.search_self_ms"] = st.serverSelf["search"].p50()
	vs["server.query_self_ms"] = st.serverSelf["query"].p50()
	vs["server.stream_self_ms"] = st.serverSelf["stream"].p50()
	vs["dist.fanout_covered_ms"] = st.fanout.p50()
	vs["dist.rpc_search_ms"] = st.rpc["search"].p50()
	vs["dist.rpc_search_skew_ms"] = st.skew.p50()
	vs["dist.rpc_stats_ms"] = st.rpc["stats"].p50()
	vs["dist.rpc_addbatch_ms"] = st.rpc["addbatch"].p50()
	if st.reads > 0 {
		vs["dist.rpc_stats_per_search"] = value{float64(len(st.rpc["stats"])) / float64(st.reads), st.reads}
	}
	if s := st.server["search"]; len(s) > 0 {
		vs["server.search_over_dist_ms"] = value{s.p50().V - vs["dist.search_direct_ms"].V, len(s)}
		// What the three parts of a search do not add up to. The parts
		// partition every single request exactly; their medians need not
		// sum to the median of the whole.
		c := st.client["search"]
		vs["client.untraced_gap_ms"] = value{c.p50().V - st.httpSelf.p50().V - st.serverSelf["search"].p50().V - st.fanout.p50().V, len(c)}
	}
	// A span or probe that does not occur on this workload reads 0.
	for _, d := range perLayer {
		if _, ok := vs[d.Name]; !ok {
			vs[d.Name] = value{}
		}
	}
	return vs, nil
}

const recoveryNote = "recovery is measured after SIGKILL: the operating system's cache survives, so it prices op-log replay, not fsync honesty"

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toJSON(defs []metricDef, vs values) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := vs[d.Name]
		if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = jsonMetric{Value: v.V, Unit: d.Unit}
	}
	return out, nil
}

// runOne measures one workload once. traced selects which half of the
// contract it answers.
func runOne(ctx context.Context, env *env, name string, seconds float64, traced bool) (values, *untraced, error) {
	w, err := newWorkload(name, env.seed, env.sz)
	if err != nil {
		return nil, nil, err
	}
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		u, err := runUntraced(ctx, env, w, d, rounds, true)
		if err != nil {
			return nil, nil, err
		}
		return u.e2e, u, nil
	}
	// The traced run splits its time: half for one untraced
	// multi-process round that gives the client.* figures and the base of
	// the overhead ratio, half for the traced replay.
	u, err := runUntraced(ctx, env, w, d/2, 1, false)
	if err != nil {
		return nil, nil, err
	}
	vs, err := runTraced(ctx, env, w, d/2, u)
	return vs, u, err
}
