package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "e2ebench" {
		t.Errorf("paths = %v, want [e2ebench]", bf.Paths)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	p := &pass{proto: pimSM, engine: map[string]int64{}, trace: map[string]int64{}}
	u := &unit{passes: []*pass{p}}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, got map[string]metric) {
		t.Helper()
		seen := map[string]bool{}
		for _, m := range listed {
			if seen[m.Name] {
				t.Errorf("%s: %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			g, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not reported", kind, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
			}
		}
		for name := range got {
			if !seen[name] {
				t.Errorf("%s: %s is reported but not in BENCHMARK.json", kind, name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd([][]*unit{{u}}))
	check("per_layer", bf.PerLayer, perLayer(u, u, nil, nil))
}
