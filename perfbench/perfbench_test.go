package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"ossd/internal/experiments"
)

// TestPostmarkIsTable5 pins the postmark workload to Table 5's shape:
// with the same transaction count and seed, its default and informed
// replays move exactly the pages experiments.Table5 reports.
func TestPostmarkIsTable5(t *testing.T) {
	const transactions, seed = 2000, 3
	want, err := experiments.Table5(experiments.Table5Options{Transactions: []int{transactions}, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	devs, streams, err := postmarkPair(transactions, seed)
	if err != nil {
		t.Fatal(err)
	}
	var moved [2]int64
	for i, d := range devs {
		if err := d.Drive(streams[i]); err != nil {
			t.Fatal(err)
		}
		moved[i] = d.Raw.GCStats().PagesMoved
	}
	if moved[0] != want.DefaultPagesMoved[0] || moved[1] != want.InformedPagesMoved[0] {
		t.Fatalf("postmark moved %d default / %d informed pages; Table 5 moved %d / %d",
			moved[0], moved[1], want.DefaultPagesMoved[0], want.InformedPagesMoved[0])
	}
	if moved[0] == 0 {
		t.Fatal("no pages moved: the comparison pins nothing")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	for _, c := range []struct {
		what string
		json []named
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)",
					c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
