package main

import "encoding/json"

// describe renders BENCHMARK.json from the tables the program measures
// by, so the file at the repository root cannot drift from the code: a
// test compares the two.
func describe() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "./dlbench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, n := range workloadNames {
		out.Workloads = append(out.Workloads, workloadJSON{n, workloadWhy[n]})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	return append(b, '\n'), err
}
