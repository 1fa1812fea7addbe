package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuick runs `dlbench -quick`: every workload, untraced and traced,
// on 500 documents with 1 s phases — the same code paths as the real
// benchmark, so the harness keeps compiling, booting dlserve and
// passing its own correctness checks.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("boots dlserve clusters; skipped with -short")
	}
	var out bytes.Buffer
	if code := realMain(&out, options{seed: 1, seconds: defaultSeconds, repeat: 1, quick: true}); code != 0 {
		t.Fatalf("dlbench -quick exited %d\n%s", code, out.String())
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if n := strings.Count(out.String(), " "+d.Name+" "); n != len(workloadNames) {
			t.Errorf("metric %s printed %d times, want once per workload", d.Name, n)
		}
	}
}
