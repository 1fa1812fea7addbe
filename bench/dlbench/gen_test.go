package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// inputs renders everything a workload sends to the program.
func inputs(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(name, seed, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), w.preload...), w.requestSequence(50)...)
}

// The same seed must give byte-identical NDJSON and request sequences,
// and a different seed must not.
func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := inputs(t, name, 7), inputs(t, name, 7), inputs(t, name, 8)
		if len(a) == 0 {
			t.Errorf("%s: no inputs", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// No workload name and no seed may reach the program.
func TestInputsCarryNoWorkloadNameOrSeed(t *testing.T) {
	const seed = 987654321
	for _, name := range workloadNames {
		in := inputs(t, name, seed)
		for _, leak := range []string{name, "987654321"} {
			if bytes.Contains(in, []byte(leak)) {
				t.Errorf("%s: inputs contain %q", name, leak)
			}
		}
	}
}

func TestQueriesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range queries(1, streamQueries, quickSizes, quickSizes.ColdPool) {
		if seen[q] {
			t.Fatalf("query %q repeats within the pool", q)
		}
		seen[q] = true
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z, r := newZipf(1000), rngFor(1, streamCorpus)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.draw(r)]++
	}
	// P(0)/P(9) is 10 at exponent 1.
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 8 || ratio > 12 {
		t.Errorf("rank 0 drawn %.1f times as often as rank 9, want about 10", ratio)
	}
}

func TestCoveredIsTheUnionOfTheChildren(t *testing.T) {
	kids := []*span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 70, End: 200}}
	if got, want := covered(kids, 0, 100), float64(40+30)/1e6; got != want {
		t.Errorf("covered = %v ms, want %v", got, want)
	}
}

// BENCHMARK.json at the repository root must be what the program's own
// tables say.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	p, err := findPaths()
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(filepath.Join(p.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Error("BENCHMARK.json differs from `go run -C bench ./dlbench -describe`; regenerate it")
	}
}
