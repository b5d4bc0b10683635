package ssd_test

import (
	"testing"

	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// TestPlayRespectsTimestamps replays a timestamped trace through core's
// Drive, the one open-loop replay every medium shares: the engine clock
// must reach the last arrival.
func TestPlayRespectsTimestamps(t *testing.T) {
	d, err := core.NewSSD(ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        ssd.Interleaved,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := []trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 4096},
		{At: 10 * sim.Millisecond, Kind: trace.Write, Offset: 4096, Size: 4096},
	}
	if err := d.Drive(trace.FromSlice(ops)); err != nil {
		t.Fatal(err)
	}
	if d.Engine().Now() < 10*sim.Millisecond {
		t.Fatalf("engine time %v, want >= 10ms", d.Engine().Now())
	}
	if d.Raw.Metrics().Completed != 2 {
		t.Fatal("not all ops completed")
	}
}
