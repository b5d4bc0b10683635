package core

import (
	"testing"

	"ossd/internal/flash"
	"ossd/internal/hdd"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

func smallSSD(t *testing.T) *SSD {
	t.Helper()
	d, err := NewSSD(ssd.Config{
		Elements:      2,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        ssd.Interleaved,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSSDWrapperRoundTrip(t *testing.T) {
	d := smallSSD(t)
	var resp sim.Time
	var gotErr error
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096},
		func(r sim.Time, err error) { resp, gotErr = r, err }); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if gotErr != nil || resp <= 0 {
		t.Fatalf("submit callback: %v %v", resp, gotErr)
	}
	m := d.Metrics()
	if m.Completed != 1 || m.BytesWritten != 4096 {
		t.Fatalf("metrics: %d %d", m.Completed, m.BytesWritten)
	}
	if m.MeanWriteMs <= 0 {
		t.Fatal("no write response recorded")
	}
}

func TestHDDWrapperRoundTrip(t *testing.T) {
	d, err := NewHDD(hdd.Barracuda7200())
	if err != nil {
		t.Fatal(err)
	}
	var resp sim.Time
	if err := d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 4096},
		func(r sim.Time, err error) { resp = r }); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if resp <= 0 {
		t.Fatal("read did not complete")
	}
	if d.LogicalBytes() != hdd.Barracuda7200().CapacityBytes {
		t.Fatal("capacity mismatch")
	}
}

func TestRAIDAndMEMSWrappers(t *testing.T) {
	r, err := NewRAID(DefaultRAID())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Drive(trace.FromSlice([]trace.Op{{Kind: trace.Write, Offset: 0, Size: 4096}})); err != nil {
		t.Fatal(err)
	}
	if rm := r.Metrics(); rm.Completed != 1 || rm.BytesWritten != 4096 {
		t.Fatalf("raid metrics: %d %d", rm.Completed, rm.BytesWritten)
	}
	m, err := NewMEMS(DefaultMEMS())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drive(trace.FromSlice([]trace.Op{{Kind: trace.Read, Offset: 0, Size: 4096}})); err != nil {
		t.Fatal(err)
	}
	if mm := m.Metrics(); mm.Completed != 1 || mm.BytesRead != 4096 {
		t.Fatalf("mems metrics: %d %d", mm.Completed, mm.BytesRead)
	}
	if m.Metrics().MeanReadMs <= 0 {
		t.Fatal("mems read mean missing")
	}
}

func TestPreconditionFull(t *testing.T) {
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	written := d.Metrics().BytesWritten
	if written != d.LogicalBytes() {
		t.Fatalf("precondition wrote %d of %d", written, d.LogicalBytes())
	}
	// Every page mapped.
	for _, el := range d.Raw.Elements() {
		for lpn := 0; lpn < el.LogicalPages(); lpn++ {
			if !el.Mapped(lpn) {
				t.Fatalf("page %d unmapped after full precondition", lpn)
			}
		}
	}
}

func TestMeasureBandwidthPatterns(t *testing.T) {
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	seq, err := MeasureBandwidth(d, BWOptions{
		Kind: trace.Read, Pattern: Sequential, ReqBytes: 8192, TotalBytes: 1 << 20, Depth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := MeasureBandwidth(d, BWOptions{
		Kind: trace.Read, Pattern: Random, ReqBytes: 4096, TotalBytes: 1 << 20, Depth: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 0 || rnd <= 0 {
		t.Fatalf("bandwidths: %v %v", seq, rnd)
	}
}

func TestMeasureBandwidthWrapsSequential(t *testing.T) {
	// TotalBytes larger than the device must wrap, not error.
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureBandwidth(d, BWOptions{
		Kind: trace.Write, Pattern: Sequential, ReqBytes: 64 << 10,
		TotalBytes: 2 * d.LogicalBytes(), Depth: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Profiles() {
		if p.Name == "" || p.Description == "" {
			t.Fatalf("profile missing identity: %+v", p)
		}
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
		if p.SeqReqBytes <= 0 || p.RandReqBytes <= 0 {
			t.Fatalf("%s: bad request sizes", p.Name)
		}
		if p.SeqReadDepth <= 0 || p.RandReadDepth <= 0 || p.SeqWriteDepth <= 0 || p.RandWriteDepth <= 0 {
			t.Fatalf("%s: missing depths", p.Name)
		}
	}
	for _, want := range []string{"HDD", "S1slc", "S2slc", "S3slc", "S4slc_sim", "S5mlc"} {
		if !names[want] {
			t.Fatalf("missing Table 2 profile %s", want)
		}
	}
}

func TestDefaultRAIDAndMEMSConfigs(t *testing.T) {
	rc := DefaultRAID()
	if rc.Disks < 3 {
		t.Fatal("default RAID too small")
	}
	mc := DefaultMEMS()
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every wrapper must report tail-latency percentiles alongside means,
// and the percentiles must be ordered and consistent with the mean's
// existence.
func TestSnapshotPercentiles(t *testing.T) {
	d := smallSSD(t)
	if err := Precondition(d, 64<<10); err != nil {
		t.Fatal(err)
	}
	var off int64
	if err := d.ClosedLoop(2, func(i int) (trace.Op, bool) {
		if i >= 200 {
			return trace.Op{}, false
		}
		kind := trace.Read
		if i%2 == 0 {
			kind = trace.Write
		}
		op := trace.Op{Kind: kind, Offset: off % d.LogicalBytes(), Size: 4096}
		off += 4096
		return op, true
	}); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.P50ReadMs <= 0 || m.P50WriteMs <= 0 {
		t.Fatalf("missing percentiles: %+v", m)
	}
	if m.P50ReadMs > m.P95ReadMs || m.P95ReadMs > m.P99ReadMs {
		t.Fatalf("read percentiles out of order: %+v", m)
	}
	if m.P50WriteMs > m.P95WriteMs || m.P95WriteMs > m.P99WriteMs {
		t.Fatalf("write percentiles out of order: %+v", m)
	}
}

// ProfileNames must enumerate exactly the registry, sorted.
func TestProfileNames(t *testing.T) {
	names := ProfileNames()
	if len(names) != len(ExtendedProfiles()) {
		t.Fatalf("ProfileNames has %d entries, registry has %d", len(names), len(ExtendedProfiles()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	for _, name := range names {
		if _, err := ProfileByName(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSSDClosedLoopAllocsPerOp pins the flash adapter's completion path:
// the SSD carries the host callback on its pooled requests, so a closed
// loop of random 4 KiB reads and writes, cleaning included, allocates
// nothing per operation (only the loop's own closures, once per call).
func TestSSDClosedLoopAllocsPerOp(t *testing.T) {
	d, err := Open("ssd")
	if err != nil {
		t.Fatal(err)
	}
	if err := PreconditionFrac(d, 1<<20, 0.8); err != nil {
		t.Fatal(err)
	}
	const ops = 20000
	pages := d.LogicalBytes() * 8 / 10 / 4096
	rng := sim.NewRNG(1)
	loop := func() {
		n := 0
		err := d.ClosedLoop(8, func(int) (trace.Op, bool) {
			if n == ops {
				return trace.Op{}, false
			}
			n++
			op := trace.Op{Kind: trace.Read, Offset: rng.Int63n(pages) * 4096, Size: 4096}
			if rng.Bool(0.5) {
				op.Kind = trace.Write
			}
			return op, true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if perOp := testing.AllocsPerRun(3, loop) / ops; perOp >= 0.01 {
		t.Fatalf("closed loop allocates %.3f per op, want 0", perOp)
	}
}
