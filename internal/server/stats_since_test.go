package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/url"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/persist"
)

// FuzzStatsSince holds GET /node/stats?since= to its contract for any
// token. A node fed several batches, with a statistics pull after
// each, records every (version, StatsLocal) pair; the fuzzer then
// supplies since. Every answer is 200, decodes, carries a version that
// round-trips through ParseStatsVersion and the node's current totals.
// A malformed token or one of another incarnation never gets a delta;
// a full answer equals StatsLocal; a delta names only current dfs, and
// laid over the reading of the version it answers yields the current
// full df.
func FuzzStatsSince(f *testing.F) {
	ix := ir.NewIndex()
	h := NewNodeHandler(ix, nil)
	pull := func(t testing.TB, since string) dist.StatsPullResponse {
		t.Helper()
		w := get(t, h, dist.PathNodeStats+"?since="+url.QueryEscape(since))
		if w.Code != http.StatusOK {
			t.Fatalf("since=%q: status %d: %s", since, w.Code, w.Body)
		}
		var resp dist.StatsPullResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("since=%q: %v in %s", since, err, w.Body)
		}
		return resp
	}
	readings := map[dist.StatsVersion]ir.Stats{}
	var now dist.StatsVersion
	doc := bat.OID(0)
	for _, batch := range [][]string{
		{"melbourne champion serve", "champion court"},
		{"court ball ball", "seles melbourne final"},
		{"final"},
		{"trophy ceremony melbourne", "champion champion trophy", "net"},
		{"ball"},
	} {
		ops := make([]persist.Op, len(batch))
		for i, text := range batch {
			doc++
			ops[i] = persist.Op{Doc: doc, URL: "u", Text: text}
		}
		if w := postWire(f, h, dist.PathNodeAddBatch, addFrame(f, ops...)); w.Code != http.StatusOK {
			f.Fatalf("batch %v: status %d: %s", batch, w.Code, w.Body)
		}
		now = dist.ParseStatsVersion(pull(f, "").Version)
		readings[now] = ix.StatsLocal() // the pull froze the index
		f.Add(now.String())
	}
	want := readings[now]
	for _, seed := range []string{"", ".", "0.0",
		dist.StatsVersion{Incarnation: now.Incarnation + 1, Epoch: now.Epoch}.String(),
		dist.StatsVersion{Incarnation: now.Incarnation, Epoch: now.Epoch + 100}.String(),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, since string) {
		resp := pull(t, since)
		if v := dist.ParseStatsVersion(resp.Version); v.String() != resp.Version || v != now {
			t.Fatalf("since=%q: version %q parses to %v, want the current %v", since, resp.Version, v, now)
		}
		if resp.TotalDF != want.TotalDF || resp.Docs != want.Docs {
			t.Fatalf("since=%q: totals %d/%d, want %d/%d", since, resp.TotalDF, resp.Docs, want.TotalDF, want.Docs)
		}
		asked := dist.ParseStatsVersion(since)
		if !resp.Delta {
			if !maps.Equal(resp.DF, want.DF) {
				t.Fatalf("since=%q: full df %v, want StatsLocal %v", since, resp.DF, want.DF)
			}
			return
		}
		if asked.Incarnation != now.Incarnation {
			t.Fatalf("since=%q (malformed or of another incarnation: %v) got a delta", since, asked)
		}
		for stem, df := range resp.DF {
			if want.DF[stem] != df {
				t.Fatalf("since=%q: delta df[%s]=%d, current %d", since, stem, df, want.DF[stem])
			}
		}
		if old, ok := readings[asked]; ok {
			laid := maps.Clone(old.DF)
			maps.Copy(laid, resp.DF)
			if !maps.Equal(laid, want.DF) {
				t.Fatalf("since=%q: reading %v with delta %v laid over is %v, want %v", since, old.DF, resp.DF, laid, want.DF)
			}
		}
	})
}
