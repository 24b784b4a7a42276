package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step: same names, units and directions, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		json []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			j := c.json[i]
			if d.name != j.Name || d.unit != j.Unit || d.better != j.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command %+v", c.what, i, j, d)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	if p := percentile(ds, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", p)
	}
	if m := median(ds); m != 500 {
		t.Errorf("median of 1..1000 = %d, want 500", m)
	}
}
