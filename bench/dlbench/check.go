package main

import (
	"context"
	"fmt"
)

// checkLoaded asks the loaded cluster the workload's probe queries and
// compares every answer with one in-process index over the same
// corpus: the paper's contract that the distributed, fragmented
// ranking equals the single-index ranking.
//
// On T-ir the coordinator assigned the oids 1, 2, … in line order, so
// /search must agree oid for oid and score for score. On T-engine the
// oids are the engine's object oids, which the benchmark cannot know;
// there /query must return the reference documents' titles and scores,
// and /search the same scores.
func (w *workload) checkLoaded(ctx context.Context, t *target) error {
	for _, q := range w.probeQueries {
		want := w.ref.topN(q, topN)
		got, err := t.api.search(ctx, "", t.index, q, topN, 0)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		if len(got.Results) != len(want) {
			return fmt.Errorf("probe %q: %d results, single index has %d", q, len(got.Results), len(want))
		}
		for i, r := range got.Results {
			if r.Score != want[i].Score || (w.refTitle == nil && r.Doc != want[i].Doc) {
				return fmt.Errorf("probe %q: rank %d is %+v, single index has %+v", q, i+1, r, want[i])
			}
		}
		if w.refTitle == nil {
			continue
		}
		cq := containsQuery(q)
		want = w.ref.topN(firstTwo(q), topN)
		rows, err := t.api.query(ctx, "", cq)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		if len(rows.Rows) != len(want) {
			return fmt.Errorf("probe %q: %d rows, single index has %d", cq, len(rows.Rows), len(want))
		}
		for i, r := range rows.Rows {
			if len(r.Values) != 1 || r.Values[0] != w.refTitle(want[i].Doc) || r.Score != want[i].Score {
				return fmt.Errorf("probe %q: row %d is %+v, single index has %s %v", cq, i+1, r, w.refTitle(want[i].Doc), want[i].Score)
			}
		}
	}
	return nil
}

// checkDocs compares the coordinator's /stats document count with what
// the benchmark had acknowledged.
func checkDocs(ctx context.Context, t *target, want int) error {
	got, err := t.api.docCount(ctx, t.index)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("/stats reports %d documents, %d were acknowledged", got, want)
	}
	return nil
}
