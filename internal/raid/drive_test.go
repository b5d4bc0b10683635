package raid_test

import (
	"testing"

	"ossd/internal/core"
	"ossd/internal/hdd"
	"ossd/internal/raid"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// TestPlayAndClosedLoop drives the array through core's replay loops,
// the one Drive and ClosedLoop every medium shares.
func TestPlayAndClosedLoop(t *testing.T) {
	cfg := raid.Config{Disks: 5, Disk: hdd.Barracuda7200(), StripeUnitBytes: 64 << 10}
	a, err := core.NewRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Drive(trace.FromSlice([]trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 8192},
		{At: sim.Millisecond, Kind: trace.Read, Offset: 0, Size: 8192},
	})); err != nil {
		t.Fatal(err)
	}
	if a.Raw.Metrics().Completed != 2 {
		t.Fatalf("completed = %d", a.Raw.Metrics().Completed)
	}
	a2, err := core.NewRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := a2.ClosedLoop(2, func(int) (trace.Op, bool) {
		if i >= 10 {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Read, Offset: int64(i) * 4096, Size: 4096}, true
	}); err != nil {
		t.Fatal(err)
	}
	if a2.Raw.Metrics().Completed != 10 {
		t.Fatalf("closed loop completed %d", a2.Raw.Metrics().Completed)
	}
}
