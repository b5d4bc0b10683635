package core

import (
	"strings"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/flash"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// smallSSDConfig is a tiny flash geometry shared by the SSD and OSD
// conformance devices.
func smallSSDConfig() ssd.Config {
	return ssd.Config{
		Elements:      2,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		Informed:      true,
	}
}

// TestDeviceConformance runs the same submit/free/replay/closed-loop
// checks against every Device implementation: the five media and the
// generic fault injector. Any new medium added to the facade must join
// this table. Frees are plain Submit calls with a trace.Free op, and
// Drive is the one open-loop replay. Faulted entries run the same phases
// under a transient-only fault plan (retries add latency, never errors)
// and must inject at least one fault. Flash-backed entries end by
// checking the FTL invariants of every device the entry built.
func TestDeviceConformance(t *testing.T) {
	// Transient faults only: every op still completes without error, so
	// the faulted entries pass the fault-free phases unchanged.
	plan := &fault.Plan{Seed: 1, Transient: &fault.Transient{Rate: 0.5}}
	faultedSSD := smallSSDConfig()
	faultedSSD.Fault = plan
	devices := []struct {
		name    string
		mk      func() (Device, error)
		faulted bool
	}{
		{"SSD", func() (Device, error) { return NewSSD(smallSSDConfig()) }, false},
		{"HDD", func() (Device, error) {
			p, err := ProfileByName("HDD")
			if err != nil {
				return nil, err
			}
			return p.NewDevice()
		}, false},
		{"MEMS", func() (Device, error) { return NewMEMS(DefaultMEMS()) }, false},
		{"RAID", func() (Device, error) { return NewRAID(DefaultRAID()) }, false},
		{"OSD", func() (Device, error) { return NewOSD(smallSSDConfig()) }, false},
		{"HDD-faulted", func() (Device, error) { return Open("hdd", WithFault(plan)) }, true},
		{"SSD-faulted", func() (Device, error) { return NewSSD(faultedSSD) }, true},
	}
	for _, tc := range devices {
		t.Run(tc.name, func(t *testing.T) {
			var built []Device
			mk := func() (Device, error) {
				d, err := tc.mk()
				if err == nil {
					built = append(built, d)
				}
				return d, err
			}

			// Submit: a write then a read complete with positive response
			// times and no error.
			d, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if d.LogicalBytes() <= 0 {
				t.Fatal("no capacity")
			}
			var wResp, rResp sim.Time
			var wErr, rErr error
			if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 8192},
				func(r sim.Time, err error) { wResp, wErr = r, err }); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if wErr != nil || wResp <= 0 {
				t.Fatalf("write: resp %v err %v", wResp, wErr)
			}
			if err := d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 8192},
				func(r sim.Time, err error) { rResp, rErr = r, err }); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if rErr != nil || rResp <= 0 {
				t.Fatalf("read: resp %v err %v", rResp, rErr)
			}

			// Metrics: the snapshot reflects both transfers.
			m := d.Metrics()
			if m.Completed < 2 {
				t.Fatalf("completed %d, want >= 2", m.Completed)
			}
			if m.BytesWritten != 8192 || m.BytesRead != 8192 {
				t.Fatalf("bytes: read %d written %d, want 8192 each", m.BytesRead, m.BytesWritten)
			}
			if m.MeanWriteMs <= 0 || m.MeanReadMs <= 0 {
				t.Fatalf("means: read %v write %v", m.MeanReadMs, m.MeanWriteMs)
			}
			if m.Errors != 0 {
				t.Fatalf("errors: %d", m.Errors)
			}

			// Free: every device accepts the notification, completes it,
			// and counts it — Snapshot.Frees is uniform across media,
			// whether or not the substrate acts on the free.
			before := d.Metrics().Completed
			if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, nil); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if d.Metrics().Completed <= before {
				t.Fatal("free never completed")
			}
			if got := d.Metrics().Frees; got != 1 {
				t.Fatalf("frees = %d, want 1 (uniform counting)", got)
			}

			// Drive: a timestamped trace (including a free) drains fully,
			// pulled one op at a time, and the clock reaches the last
			// arrival.
			d2, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			ops := []trace.Op{
				{At: 0, Kind: trace.Write, Offset: 0, Size: 4096},
				{At: 1 * sim.Millisecond, Kind: trace.Write, Offset: 4096, Size: 4096},
				{At: 2 * sim.Millisecond, Kind: trace.Read, Offset: 0, Size: 4096},
				{At: 3 * sim.Millisecond, Kind: trace.Free, Offset: 4096, Size: 4096},
			}
			if err := d2.Drive(trace.FromSlice(ops)); err != nil {
				t.Fatal(err)
			}
			if m := d2.Metrics(); m.BytesWritten != 8192 || m.BytesRead != 4096 || m.Frees != 1 {
				t.Fatalf("drive moved read %d written %d frees %d", m.BytesRead, m.BytesWritten, m.Frees)
			}
			if d2.Engine().Pending() != 0 {
				t.Fatalf("drive left %d events pending", d2.Engine().Pending())
			}
			if last := ops[len(ops)-1].At; d2.Engine().Now() < last {
				t.Fatalf("drive returned at %v, before the last arrival at %v", d2.Engine().Now(), last)
			}

			// Drive surfaces a decoder error from the stream.
			d2c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := d2c.Drive(trace.NewDecoder(strings.NewReader("0 W 0 4096\nbroken\n"))); err == nil {
				t.Fatal("drive swallowed stream error")
			}

			// ClosedLoop: exactly n generated ops complete.
			d3, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			const n = 16
			i := 0
			if err := d3.ClosedLoop(4, func(int) (trace.Op, bool) {
				if i >= n {
					return trace.Op{}, false
				}
				op := trace.Op{Kind: trace.Write, Offset: int64(i) * 4096, Size: 4096}
				i++
				return op, true
			}); err != nil {
				t.Fatal(err)
			}
			if m := d3.Metrics(); m.BytesWritten != n*4096 {
				t.Fatalf("closed loop wrote %d, want %d", m.BytesWritten, n*4096)
			}

			// Out-of-range submissions are rejected up front.
			if err := d.Submit(trace.Op{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
				t.Fatal("accepted read beyond capacity")
			}

			var injected int64
			for i, d := range built {
				checkFlashInvariants(t, i, d)
				injected += d.Metrics().FaultsInjected
			}
			if tc.faulted && injected == 0 {
				t.Fatal("faulted entry injected no faults")
			}
		})
	}
}

// checkFlashInvariants validates every element FTL behind a flash-backed
// device, the entry's i-th; other media have none to check.
func checkFlashInvariants(t *testing.T, i int, d Device) {
	t.Helper()
	var raw *ssd.Device
	switch v := d.(type) {
	case *SSD:
		raw = v.Raw
	case *OSD:
		raw = v.Raw
	default:
		return
	}
	for e, el := range raw.Elements() {
		if err := el.CheckInvariants(); err != nil {
			t.Errorf("device %d element %d: %v", i, e, err)
		}
	}
}

// TestOSDDeviceObjectPath checks the OSD-specific plumbing: block ops
// land in the store's volume object and frees reach the informed FTL.
func TestOSDDeviceObjectPath(t *testing.T) {
	d, err := NewOSD(smallSSDConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 32 << 10}, nil); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	st := d.Store.Stats()
	if st.BytesWritten != 32<<10 {
		t.Fatalf("store saw %d bytes, want %d", st.BytesWritten, 32<<10)
	}
	info, err := d.Store.Stat(d.Volume())
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != d.LogicalBytes() {
		t.Fatalf("volume spans %d, want %d", info.Size, d.LogicalBytes())
	}
	if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 16 << 10}, nil); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if m := d.Metrics(); m.Frees != 1 {
		t.Fatalf("frees %d, want 1", m.Frees)
	}
}
