package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
)

// TestNodePostingsSurviveRestore: dl_node_postings_total counts the
// evaluations of every index the node has served. A restore swaps the
// index, but both kinds stay monotone and keep counting: a search
// after the restore adds its admitted postings on top of the ones
// before it. A scrape loop runs throughout, so -race sees the series
// read beside the swaps.
func TestNodePostingsSurviveRestore(t *testing.T) {
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = "match ball court"
		if i%9 == 0 {
			texts[i] = fmt.Sprintf("seles match %d", i)
		}
	}
	build := func() *ir.Index {
		ix := ir.NewIndex()
		for i, text := range texts {
			ix.Add(bat.OID(i+1), "u", text)
		}
		ix.Freeze()
		return ix
	}
	ix := build()
	stats := ix.StatsLocal()
	reg := obs.NewRegistry()
	s := NewNodeServer(ix, &NodeConfig{Metrics: reg})
	h := s.Handler()
	counts := func() (scored, skipped float64) {
		for _, se := range reg.Series() {
			if se.Name == "dl_node_postings_total" {
				if se.Labels["kind"] == "scored" {
					scored = *se.Value
				} else {
					skipped = *se.Value
				}
			}
		}
		return scored, skipped
	}
	search := func() {
		t.Helper()
		if w := postWire(t, h, "/node/search", searchFrame(t, "seles match", ir.EvalPlan{N: 1}, stats)); w.Code != http.StatusOK {
			t.Fatalf("/node/search = %d: %s", w.Code, w.Body)
		}
	}
	admitted := float64(stats.DF["sele"] + stats.DF["match"])

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		var lastScored, lastSkipped float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.WritePrometheus(io.Discard)
			scored, skipped := counts()
			if scored < lastScored || skipped < lastSkipped {
				t.Errorf("postings ran backwards: scored %v after %v, skipped %v after %v", scored, lastScored, skipped, lastSkipped)
				return
			}
			lastScored, lastSkipped = scored, skipped
		}
	}()
	for round := 1; round <= 5; round++ {
		search()
		scored, skipped := counts()
		if scored+skipped != admitted*float64(round) {
			t.Fatalf("round %d: scored %v + skipped %v, want %v admitted postings", round, scored, skipped, admitted*float64(round))
		}
		if err := s.node.RestoreState(context.Background(), build().ExportState()); err != nil {
			t.Fatal(err)
		}
		if rs, rk := counts(); rs != scored || rk != skipped {
			t.Fatalf("round %d: restore moved the counts from %v/%v to %v/%v", round, scored, skipped, rs, rk)
		}
	}
	close(stop)
	scrapes.Wait()
	if _, skipped := counts(); skipped == 0 {
		t.Fatal("MaxScore skipped nothing: the skipped series went untested")
	}
}
