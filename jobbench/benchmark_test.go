package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, e := range list {
			out = append(out, e.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(v []string) []string {
		v = append([]string(nil), v...)
		sort.Strings(v)
		return v
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	if got, want := names(spec.EndToEnd), sorted(e2eNames); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, program prints %v", got, want)
	}
	var layers []string
	for name := range layerMetrics(newTracer()) {
		layers = append(layers, name)
	}
	layers = append(layers, overheadMetrics...)
	if got, want := names(spec.PerLayer), sorted(layers); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, program prints %v", got, want)
	}
}
