package core

import (
	"strconv"
	"testing"

	"dlsearch/internal/detector"
)

// TestUpgradeThroughEngine exercises the maintenance stage end to end:
// a tennis tracker upgrade (minor revision) with changed output must
// propagate through the FDS into the stored meta-index and flip the
// answer of the Figure 13 query — without re-running the segment
// detector.
func TestUpgradeThroughEngine(t *testing.T) {
	// Private engine: this test mutates.
	e, s, _, err := BuildAusOpen(1)
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Query(Figure13Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != len(s.Figure13Answer()) {
		t.Fatalf("precondition: rows = %d", len(before.Rows))
	}
	segBefore := e.Scheduler.Engine.Stats.DetectorCalls["segment"]

	rep, err := e.Upgrade(brokenTracker())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Upgrade.Level != detector.ChangeMinor {
		t.Fatalf("level = %v", rep.Upgrade.Level)
	}
	if rep.Restored == 0 {
		t.Fatal("no meta-index documents rewritten")
	}
	// Incremental: segment must not have been re-run.
	if got := e.Scheduler.Engine.Stats.DetectorCalls["segment"] - segBefore; got != 0 {
		t.Fatalf("segment re-ran %d times", got)
	}
	after, err := e.Query(Figure13Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 0 {
		t.Fatalf("after the broken tracker no netplay should remain, got %+v", after.Rows)
	}
}

// brokenTracker is a tennis tracker vNext (minor revision) whose player
// is never anywhere near the net (all yPos far beyond the threshold).
func brokenTracker() *detector.Impl {
	return &detector.Impl{
		Name:    "tennis",
		Version: detector.Version{Major: 1, Minor: 1},
		Fn: func(ctx *detector.Context) ([]detector.Token, error) {
			begin, _ := strconv.Atoi(ctx.Param(1))
			end, _ := strconv.Atoi(ctx.Param(2))
			var toks []detector.Token
			for f := begin; f <= end; f++ {
				toks = append(toks,
					detector.Token{Symbol: "frameNo", Value: strconv.Itoa(f)},
					detector.Token{Symbol: "xPos", Value: "320.0"},
					detector.Token{Symbol: "yPos", Value: "400.0"},
					detector.Token{Symbol: "Area", Value: "21"},
					detector.Token{Symbol: "Ecc", Value: "0.5"},
					detector.Token{Symbol: "Orient", Value: "1.5"},
				)
			}
			return toks, nil
		},
	}
}

// TestAPrioriRestriction is experiment E17: pushing the conceptual
// selections below the IR ranking shrinks the ranked candidate set.
func TestAPrioriRestriction(t *testing.T) {
	e, _, _ := build(t)
	q := `
SELECT p.name FROM Player p
WHERE p.gender = 'female' AND p.hand = 'left'
  AND contains(p.history, 'Winner')`
	optRes, optStats, err := e.QueryWithStats(q, false)
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, naiveStats, err := e.QueryWithStats(q, true)
	if err != nil {
		t.Fatal(err)
	}
	// Same answers.
	if len(optRes.Rows) != len(naiveRes.Rows) {
		t.Fatalf("plans disagree: %d vs %d rows", len(optRes.Rows), len(naiveRes.Rows))
	}
	for i := range optRes.Rows {
		if optRes.Rows[i].Values[0] != naiveRes.Rows[i].Values[0] {
			t.Fatalf("row %d: %v vs %v", i, optRes.Rows[i].Values, naiveRes.Rows[i].Values)
		}
	}
	// Less IR work with the restriction: only the 4 left-handed female
	// players are scored instead of every champion document.
	if optStats.IRDocsScored >= naiveStats.IRDocsScored {
		t.Fatalf("restriction did not reduce IR work: %d vs %d",
			optStats.IRDocsScored, naiveStats.IRDocsScored)
	}
}

// TestCheckSourcesThroughEngine: a changed source video triggers a full
// re-parse of just that object's parse tree.
func TestCheckSourcesThroughEngine(t *testing.T) {
	e, s, _, err := BuildAusOpen(2)
	if err != nil {
		t.Fatal(err)
	}
	target := s.Players[0].VideoURL
	n := e.Scheduler.CheckSources(func(id string, _ []detector.Token) bool {
		return id == target
	})
	if n != 1 {
		t.Fatalf("scheduled %d", n)
	}
	run := e.Scheduler.Run()
	if run.FullReparses != 1 {
		t.Fatalf("full reparses = %d", run.FullReparses)
	}
}
