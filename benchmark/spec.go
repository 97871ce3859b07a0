package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one place the metric names, units,
// directions and bounds are written down. The program reads it instead of
// repeating it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory (the repository
// root, where run.sh starts the program) or its parent (go test runs in
// the benchmark's own directory) and returns it with the root it lies in.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if len(spec.Paths) == 0 {
			return nil, "", fmt.Errorf("BENCHMARK.json names no paths")
		}
		return &spec, root, nil
	}
	return nil, "", fmt.Errorf("no BENCHMARK.json in the working directory or its parent")
}

// unitOf maps every declared metric to its unit; outcome.set refuses any
// other name.
var unitOf = map[string]string{}

func declareMetrics(spec *benchSpec) {
	for _, list := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			unitOf[d.Name] = d.Unit
		}
	}
}
