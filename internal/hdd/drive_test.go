package hdd_test

import (
	"math/rand"
	"testing"

	"ossd/internal/core"
	"ossd/internal/hdd"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// The workload-level disk tests drive the model through core's replay
// loops, the one Drive and ClosedLoop every medium shares.

func newDisk(t *testing.T) *core.HDD {
	t.Helper()
	d, err := core.NewHDD(hdd.Barracuda7200())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSequentialReadBandwidth(t *testing.T) {
	d := newDisk(t)
	const reqSize = 1 << 20
	const n = 64
	i := 0
	err := d.ClosedLoop(1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Read, Offset: int64(i) * reqSize, Size: reqSize}
		i++
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
	bw := stats.Bandwidth(int64(n)*reqSize, d.Engine().Now().Seconds())
	// Outer zone: close to the configured max rate.
	if bw < 70 || bw > 95 {
		t.Fatalf("sequential read bandwidth = %.1f MB/s, want ~87", bw)
	}
}

func TestRandomReadLatency(t *testing.T) {
	d := newDisk(t)
	rng := rand.New(rand.NewSource(1))
	const n = 200
	i := 0
	err := d.ClosedLoop(1, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		off := rng.Int63n(d.LogicalBytes()/4096) * 4096
		return trace.Op{Kind: trace.Read, Offset: off, Size: 4096}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := d.Raw.Metrics().ReadResp.Mean()
	// Seek + half rotation + transfer: 10-16 ms for a 7200 RPM drive.
	if mean < 8 || mean > 20 {
		t.Fatalf("random 4K read mean = %.2f ms, want 8-20", mean)
	}
	bw := stats.Bandwidth(d.Raw.Metrics().BytesRead, d.Engine().Now().Seconds())
	if bw > 1.0 {
		t.Fatalf("random read bandwidth = %.2f MB/s, implausibly fast", bw)
	}
}

func TestRandomWriteFasterThanRandomRead(t *testing.T) {
	// The CLOOK drain must make sustained random writes faster than
	// random reads (Table 2: 1.3 vs 0.6 MB/s).
	measure := func(kind trace.Kind) float64 {
		d := newDisk(t)
		rng := rand.New(rand.NewSource(7))
		const n = 3000
		i := 0
		if err := d.ClosedLoop(4, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			off := rng.Int63n(d.LogicalBytes()/4096) * 4096
			return trace.Op{Kind: kind, Offset: off, Size: 4096}, true
		}); err != nil {
			t.Fatal(err)
		}
		return stats.Bandwidth(int64(n)*4096, d.Engine().Now().Seconds())
	}
	wr := measure(trace.Write)
	rd := measure(trace.Read)
	if wr <= rd {
		t.Fatalf("random write %.2f MB/s not faster than read %.2f MB/s", wr, rd)
	}
	if wr > 10*rd {
		t.Fatalf("random write %.2f MB/s implausibly faster than read %.2f", wr, rd)
	}
}

func TestPlayDrains(t *testing.T) {
	d := newDisk(t)
	ops := []trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 65536},
		{At: sim.Millisecond, Kind: trace.Read, Offset: 1 << 30, Size: 65536},
	}
	if err := d.Drive(trace.FromSlice(ops)); err != nil {
		t.Fatal(err)
	}
	if d.Raw.Metrics().Completed != 2 {
		t.Fatalf("completed = %d", d.Raw.Metrics().Completed)
	}
}
