package mems_test

import (
	"math/rand"
	"testing"

	"ossd/internal/core"
	"ossd/internal/mems"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// The workload-level MEMS tests drive the model through core's replay
// loops, the one Drive and ClosedLoop every medium shares.

func newDevice(t *testing.T) *core.MEMS {
	t.Helper()
	d, err := core.NewMEMS(mems.G2())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSequentialStreamsAtMediaRate(t *testing.T) {
	d := newDevice(t)
	const req = 1 << 20
	const n = 32
	i := 0
	err := d.ClosedLoop(1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Read, Offset: int64(i) * req, Size: req}
		i++
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
	bw := stats.Bandwidth(n*req, d.Engine().Now().Seconds())
	if rate := mems.G2().StreamMBps; bw < 0.85*rate || bw > 1.1*rate {
		t.Fatalf("sequential bandwidth = %.1f, want ~%.0f", bw, rate)
	}
}

func TestRandomSlowerButNotDisklike(t *testing.T) {
	d := newDevice(t)
	rng := rand.New(rand.NewSource(1))
	const n = 500
	i := 0
	err := d.ClosedLoop(1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Read, Offset: rng.Int63n(d.LogicalBytes()/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := d.Raw.Metrics().ReadResp.Mean()
	// Sub-millisecond seeks: far faster than a disk's ~12 ms, far slower
	// than streaming.
	if mean > 2 || mean < 0.05 {
		t.Fatalf("random 4K read mean = %.3f ms", mean)
	}
	bw := stats.Bandwidth(d.Raw.Metrics().BytesRead, d.Engine().Now().Seconds())
	if rate := mems.G2().StreamMBps; bw >= rate/5 {
		t.Fatalf("random bandwidth %.1f too close to streaming %.0f", bw, rate)
	}
}

func TestPlay(t *testing.T) {
	d := newDevice(t)
	if err := d.Drive(trace.FromSlice([]trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 65536},
		{At: sim.Millisecond, Kind: trace.Read, Offset: 1 << 28, Size: 65536},
	})); err != nil {
		t.Fatal(err)
	}
	if d.Raw.Metrics().Completed != 2 {
		t.Fatalf("completed = %d", d.Raw.Metrics().Completed)
	}
}

func TestUniformAddressSpace(t *testing.T) {
	// Unlike the zoned disk, streaming rate is identical at both ends of
	// the address space.
	measure := func(base int64) float64 {
		d := newDevice(t)
		const req = 1 << 20
		i := 0
		if err := d.ClosedLoop(1, func(int) (trace.Op, bool) {
			if i >= 16 {
				return trace.Op{}, false
			}
			op := trace.Op{Kind: trace.Read, Offset: base + int64(i)*req, Size: req}
			i++
			return op, true
		}); err != nil {
			t.Fatal(err)
		}
		return stats.Bandwidth(16*req, d.Engine().Now().Seconds())
	}
	outer := measure(0)
	inner := measure(3 << 30)
	if ratio := outer / inner; ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("address space not uniform: outer/inner = %.3f", ratio)
	}
}
