package mems

import (
	"testing"

	"ossd/internal/sim"
	"ossd/internal/trace"
)

func newDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, G2())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	c := G2()
	c.CapacityBytes = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted zero capacity")
	}
	c = G2()
	c.StreamMBps = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted zero stream rate")
	}
}

func TestSeekGrowsWithDistance(t *testing.T) {
	_, d := newDevice(t)
	short := d.seekTime(0, 10)
	long := d.seekTime(0, d.cfg.Tracks-1)
	if short <= 0 || long <= short {
		t.Fatalf("seek curve: short %v long %v", short, long)
	}
	if s := d.seekTime(5, 5); s != 0 {
		t.Fatalf("zero-distance seek = %v", s)
	}
}

func TestSingleActuatorSerializes(t *testing.T) {
	eng, d := newDevice(t)
	var r1, r2 *Request
	d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 1 << 20}, func(r *Request) { r1 = r })
	d.Submit(trace.Op{Kind: trace.Read, Offset: 1 << 30, Size: 1 << 20}, func(r *Request) { r2 = r })
	eng.Run()
	if r2.Start < r1.Done {
		t.Fatal("second request started before first finished")
	}
}

func TestWriteAndFree(t *testing.T) {
	eng, d := newDevice(t)
	var w, f *Request
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 8192}, func(r *Request) { w = r })
	d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 8192}, func(r *Request) { f = r })
	eng.Run()
	if w == nil || d.Metrics().BytesWritten != 8192 {
		t.Fatal("write not accounted")
	}
	if f == nil || f.Response() != 0 {
		t.Fatal("free not immediate no-op")
	}
	if n := d.Metrics().Frees; n != 1 {
		t.Fatalf("frees = %d, want 1", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d := newDevice(t)
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: -1, Size: 4096}, nil); err == nil {
		t.Error("accepted negative offset")
	}
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
		t.Error("accepted op beyond capacity")
	}
}
