package hdd

import (
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

func newDisk(t *testing.T, cfg Config) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	cfg := Barracuda7200()
	cfg.CapacityBytes = 0
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Error("accepted zero capacity")
	}
	cfg = Barracuda7200()
	cfg.Zones = 0
	if _, err := New(sim.NewEngine(), cfg); err != nil {
		t.Errorf("zero zones should default to 1: %v", err)
	}
}

func TestZoneMapping(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	if z := d.zoneOf(0); z != 0 {
		t.Fatalf("zoneOf(0) = %d", z)
	}
	if z := d.zoneOf(d.cfg.CapacityBytes - 1); z != d.cfg.Zones-1 {
		t.Fatalf("last byte zone = %d, want %d", z, d.cfg.Zones-1)
	}
	// Outer zone must be faster than inner.
	if d.zoneRate[0] <= d.zoneRate[d.cfg.Zones-1] {
		t.Fatal("outer zone not faster than inner")
	}
	// Cylinder mapping is monotone.
	prev := -1
	for off := int64(0); off < d.cfg.CapacityBytes; off += d.cfg.CapacityBytes / 64 {
		c := d.cylOf(off)
		if c < prev {
			t.Fatalf("cylinder mapping not monotone at %d", off)
		}
		prev = c
	}
}

func TestSeekCurve(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	if s := d.seekTime(100, 100); s != 0 {
		t.Fatalf("zero-distance seek = %v", s)
	}
	short := d.seekTime(0, 1)
	long := d.seekTime(0, d.cfg.Cylinders-1)
	if short <= 0 || long <= short {
		t.Fatalf("seek curve broken: short %v long %v", short, long)
	}
	// Full stroke lands near the configured anchor.
	if long < d.cfg.FullStroke/2 || long > 2*d.cfg.FullStroke {
		t.Fatalf("full stroke = %v, anchor %v", long, d.cfg.FullStroke)
	}
	// Monotone in distance.
	prev := sim.Time(0)
	for dist := 1; dist < d.cfg.Cylinders; dist *= 4 {
		s := d.seekTime(0, dist)
		if s < prev {
			t.Fatalf("seek not monotone at %d", dist)
		}
		prev = s
	}
}

func TestWriteCacheAbsorbsBurst(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	var r *Request
	d.Submit(trace.Op{Kind: trace.Write, Offset: 123 * 4096, Size: 4096}, func(x *Request) { r = x })
	eng.Run()
	if r == nil {
		t.Fatal("write never completed")
	}
	if r.Response() > sim.Millisecond {
		t.Fatalf("cached write response = %v, want ~cache latency", r.Response())
	}
}

func TestCacheReadHit(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil)
	var r *Request
	d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 4096}, func(x *Request) { r = x })
	eng.RunUntil(sim.Millisecond)
	if r == nil {
		t.Fatal("read did not complete")
	}
	if d.Metrics().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", d.Metrics().CacheHits)
	}
}

func TestWriteThroughWithoutCache(t *testing.T) {
	cfg := Barracuda7200()
	cfg.CacheBytes = 0
	eng, d := newDisk(t, cfg)
	var r *Request
	d.Submit(trace.Op{Kind: trace.Write, Offset: 12345 * 4096, Size: 4096}, func(x *Request) { r = x })
	eng.Run()
	if r.Response() < sim.Millisecond {
		t.Fatalf("write-through response = %v, want mechanical latency", r.Response())
	}
}

func TestFreeIsNoop(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	var r *Request
	d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, func(x *Request) { r = x })
	eng.Run()
	if r == nil || r.Response() != 0 {
		t.Fatal("free not immediate")
	}
	if f := d.Metrics().Frees; f != 1 {
		t.Fatalf("frees = %d, want 1", f)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: -1, Size: 4096}, nil); err == nil {
		t.Error("accepted negative offset")
	}
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
		t.Error("accepted op beyond capacity")
	}
}

func TestCLOOKWrapsAround(t *testing.T) {
	eng, d := newDisk(t, Barracuda7200())
	// Fill cache with writes below the head position, then one above:
	// CLOOK serves the one at/after the head first, then wraps.
	d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes() / 2, Size: 4096}, nil)
	eng.Run() // park the head mid-disk
	lowOff := int64(4096)
	highOff := d.LogicalBytes() - 1<<20
	d.Submit(trace.Op{Kind: trace.Write, Offset: lowOff, Size: 4096}, nil)
	d.Submit(trace.Op{Kind: trace.Write, Offset: highOff, Size: 4096}, nil)
	// Both are absorbed by cache; drain order must visit highOff (ahead
	// of the head) before wrapping to lowOff.
	first := d.nextDrain()
	if first.off != highOff {
		t.Fatalf("CLOOK drained %d first, want %d (ahead of head)", first.off, highOff)
	}
	eng.Run()
	if len(d.cache) != 0 {
		t.Fatal("cache not drained")
	}
}

func TestWaitingWritesAdmittedInOrder(t *testing.T) {
	cfg := Barracuda7200()
	cfg.CacheBytes = 8192 // two 4 KB entries
	eng, d := newDisk(t, cfg)
	var order []int64
	for i := int64(0); i < 4; i++ {
		off := i * 1 << 20
		d.Submit(trace.Op{Kind: trace.Write, Offset: off, Size: 4096},
			func(r *Request) { order = append(order, r.Op.Offset) })
	}
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d of 4", len(order))
	}
	// The two blocked writes are admitted as drains free space, preserving
	// their relative submission order (absolute completion order mixes
	// with the cache-latency acks of the unblocked writes).
	pos := map[int64]int{}
	for i, off := range order {
		pos[off] = i
	}
	if pos[2<<20] > pos[3<<20] {
		t.Fatalf("waiting writes out of relative order: %v", order)
	}
}

func TestSequentialDetectionResetsOnSeek(t *testing.T) {
	_, d := newDisk(t, Barracuda7200())
	d.serviceTime(1<<30, 4096) // park the head away from offset 0
	seq := d.serviceTime(0, 65536)
	cont := d.serviceTime(65536, 65536)
	if cont >= seq {
		t.Fatalf("sequential continuation (%v) not cheaper than first access (%v)", cont, seq)
	}
	jump := d.serviceTime(d.LogicalBytes()/2, 65536)
	if jump <= cont {
		t.Fatalf("seek after jump (%v) not dearer than continuation (%v)", jump, cont)
	}
}
