package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// sample is the outcome of one timed request.
type sample struct {
	kind    opKind
	ms      float64 // closed loop: send to reply; open loop: due to reply
	lateMs  float64 // open loop: send after the generator was free to send
	ok      bool
	quality float64 // search: the served quality estimate
	docs    int     // stream: documents acknowledged
	bytes   int     // stream: document text bytes acknowledged
}

// phase is one timed phase: its samples and how long it ran.
type phase struct {
	samples []sample
	seconds float64
}

// target is a coordinator under load: the real cluster of the untraced
// run or the in-process topology of the traced one.
type target struct {
	api   *api
	index string
	rec   *recorder // nil: untraced
}

// send executes one request and fills in everything but the latency.
func (t *target) send(ctx context.Context, o op) sample {
	s := sample{kind: o.kind}
	id := 0
	if t.rec != nil {
		id = t.rec.startRequest(o.kind.String())
		defer t.rec.end(id)
	}
	var err error
	switch o.kind {
	case opSearch:
		var r *searchResponse
		if r, err = t.api.search(ctx, requestID(id), t.index, o.text, topN, o.frag); err == nil {
			s.quality = r.Quality.Value
		}
	case opQuery:
		_, err = t.api.query(ctx, requestID(id), o.text)
	case opStream:
		if _, err = t.api.stream(ctx, requestID(id), o.body); err == nil {
			s.docs, s.bytes = o.docs, o.bytes
		}
	}
	s.ok = err == nil
	if err != nil {
		logf("request failed: %v", err)
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runClosed drives the closed loop: each client sends its next request
// when the previous one has been answered, until the time is up — or,
// for a workload of stated size, until its requests are all sent.
func runClosed(ctx context.Context, t *target, w *workload, clients, first int, d time.Duration) phase {
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	more := func(i int) bool { return time.Now().Before(deadline) }
	if w.perSecond > 0 {
		n := int(w.perSecond * d.Seconds())
		more = func(i int) bool { return i < n }
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(i) && ctx.Err() == nil; i++ {
				o := w.closed(c, clients, first+i)
				sent := time.Now()
				s := t.send(ctx, o)
				s.ms = msSince(sent)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{seconds: time.Since(start).Seconds()}
	for _, p := range per {
		ph.samples = append(ph.samples, p...)
	}
	return ph
}

// runOpen drives the open loop: a reader and a writer, each on its own
// connection, send on a fixed schedule whatever the replies do. A
// request is timed from when it was due; a connection still busy with
// the previous reply sends late, and that wait is part of the latency.
// lateMs is only the generator's own share: how long after both the
// due time and the previous reply the request actually left.
func runOpen(ctx context.Context, t *target, w *workload, firstRead int, d time.Duration) phase {
	start := time.Now()
	lane := func(rate, offset float64, next func(i int) op, first int, out *[]sample) {
		for i, due := range dueTimes(rate, d.Seconds()) {
			dueAt := start.Add(time.Duration((due + offset) * float64(time.Second)))
			o := next(first + i)
			free := time.Now()
			if wait := time.Until(dueAt); wait > 0 {
				time.Sleep(wait)
				free = dueAt
			}
			if ctx.Err() != nil {
				return
			}
			late := msSince(free)
			s := t.send(ctx, o)
			s.ms, s.lateMs = msSince(dueAt), late
			*out = append(*out, s)
		}
	}
	var reads, writes []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); lane(mixedReadRate, 0, w.read, firstRead, &reads) }()
	// Write batch 0 belongs to the warm-up. A stream is due half a read
	// interval after a read, never at the same instant: which of two
	// simultaneous requests the coordinator takes first would be a coin
	// toss in every cycle.
	go func() { defer wg.Done(); lane(mixedWriteRate, 0.5/mixedReadRate, w.write, 1, &writes) }()
	wg.Wait()
	return phase{samples: append(reads, writes...), seconds: time.Since(start).Seconds()}
}

// roundStride separates the request sequences of a run's rounds, so
// that the samples pooled over the rounds come from different queries.
const roundStride = 1 << 15

// run drives one timed phase. Every round meets a fresh cluster, so the
// open loop's writer starts again at batch 1.
func (w *workload) run(ctx context.Context, t *target, clients, round int, d time.Duration) phase {
	if w.clients == 0 {
		return runOpen(ctx, t, w, round*roundStride, d)
	}
	return runClosed(ctx, t, w, clients, round*roundStride, d)
}

// byKind splits a phase's correct samples into latency distributions.
func (ph *phase) byKind() (all series, kinds map[opKind]series) {
	kinds = map[opKind]series{}
	for _, s := range ph.samples {
		if s.ok {
			all = append(all, s.ms)
			kinds[s.kind] = append(kinds[s.kind], s.ms)
		}
	}
	return all, kinds
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// acked is what the phase's streams had acknowledged.
func (ph *phase) acked() (docs, bytes int) {
	for _, s := range ph.samples {
		docs += s.docs
		bytes += s.bytes
	}
	return docs, bytes
}

// loaded is the state of a set-up cluster: what it has acknowledged.
type loaded struct {
	docs  int
	bytes int
}

// prepare loads a booted coordinator and warms it up: the part of
// set-up that is the same for processes and the in-process topology.
func (w *workload) prepare(ctx context.Context, t *target) (loaded, error) {
	var ld loaded
	if w.preload != nil {
		if _, err := t.api.stream(ctx, "", w.preload); err != nil {
			return ld, fmt.Errorf("preload: %w", err)
		}
		ld.docs, ld.bytes = w.preloadDocs, w.preloadBytes
	}
	for _, o := range w.warm {
		s := t.send(ctx, o)
		if !s.ok {
			return ld, fmt.Errorf("warm-up %s request failed", o.kind)
		}
		ld.docs += s.docs
		ld.bytes += s.bytes
	}
	return ld, nil
}

// setUp boots a real cluster, loads it and warms it up, and says how
// long that took.
func (w *workload) setUp(ctx context.Context, env *env) (*cluster, loaded, float64, error) {
	start := time.Now()
	c, err := bootCluster(ctx, env.paths, env.bin, w.topo, w.name, env.hc)
	if err != nil {
		return nil, loaded{}, 0, err
	}
	ld, err := w.prepare(ctx, &target{api: &api{env.hc, "http://" + c.coord.addr}, index: w.topo.searchIndex()})
	if err != nil {
		c.close()
		return nil, ld, 0, err
	}
	return c, ld, time.Since(start).Seconds(), nil
}
