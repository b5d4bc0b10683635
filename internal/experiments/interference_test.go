package experiments

import (
	"reflect"
	"testing"
)

// TestInterferenceIsolation runs the sweep once and checks the claims
// the table makes: the aggressor collapses the victim's read tail when
// no fair-share layer is present, and any weighted configuration
// restores it by an order of magnitude while costing the aggressor
// little throughput.
func TestInterferenceIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	r, err := Interference(InterferenceOptions{Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 || r.Rows[0].Config != "unfair" {
		t.Fatalf("rows: %+v", r.Rows)
	}
	unfair := r.Rows[0]
	if unfair.VictimP99ReadMs <= 0 || unfair.AggressorWriteMBps <= 0 {
		t.Fatalf("implausible unfair row: %+v", unfair)
	}
	for _, fair := range r.Rows[1:] {
		if fair.VictimP99ReadMs*10 > unfair.VictimP99ReadMs {
			t.Errorf("%s: victim p99 %.2f ms not >=10x better than unfair %.2f ms",
				fair.Config, fair.VictimP99ReadMs, unfair.VictimP99ReadMs)
		}
		if fair.AggressorWriteMBps < unfair.AggressorWriteMBps*0.8 {
			t.Errorf("%s: aggressor throughput %.1f MB/s collapsed (unfair %.1f)",
				fair.Config, fair.AggressorWriteMBps, unfair.AggressorWriteMBps)
		}
	}
}

// TestInterferenceDeterministic pins the experiment's reproducibility
// contract: identical results at any worker count — the property the
// repro goldens sweep relies on.
func TestInterferenceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	serial, err := Interference(InterferenceOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Interference(InterferenceOptions{Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the result:\n%+v\n%+v", serial, parallel)
	}
}
