package core

import (
	"strings"
	"testing"

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

// TestDeviceConformance runs the same read/write/free/replay/closed-loop
// checks against every Device implementation. Any new medium added to
// the facade must join this table. Flash-backed entries end by checking
// the FTL invariants of every device the entry built.
func TestDeviceConformance(t *testing.T) {
	devices := []struct {
		name string
		mk   func() (Device, error)
	}{
		{"SSD", func() (Device, error) { return NewSSD(smallSSDConfig()) }},
		{"HDD", func() (Device, error) {
			p, err := ProfileByName("HDD")
			if err != nil {
				return nil, err
			}
			return p.NewDevice()
		}},
		{"MEMS", func() (Device, error) { return NewMEMS(DefaultMEMS()) }},
		{"RAID", func() (Device, error) { return NewRAID(DefaultRAID()) }},
		{"OSD", func() (Device, error) { return NewOSD(smallSSDConfig()) }},
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
			if err := d.Free(0, 4096); err != nil {
				t.Fatal(err)
			}
			d.Engine().Run()
			if d.Metrics().Completed <= before {
				t.Fatal("free never completed")
			}
			if got := d.Metrics().Frees; got != 1 {
				t.Fatalf("frees = %d, want 1 (uniform counting)", got)
			}

			// Play: a timestamped trace (including a free) drains fully.
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
			if err := d2.Play(ops); err != nil {
				t.Fatal(err)
			}
			if m := d2.Metrics(); m.BytesWritten != 8192 || m.BytesRead != 4096 {
				t.Fatalf("play moved read %d written %d", m.BytesRead, m.BytesWritten)
			}
			if d2.Engine().Pending() != 0 {
				t.Fatalf("play left %d events pending", d2.Engine().Pending())
			}

			// Drive: the same trace as a stream produces the same motion,
			// pulled one op at a time.
			d2b, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := d2b.Drive(trace.FromSlice(ops)); err != nil {
				t.Fatal(err)
			}
			if m := d2b.Metrics(); m.BytesWritten != 8192 || m.BytesRead != 4096 || m.Frees != 1 {
				t.Fatalf("drive moved read %d written %d frees %d", m.BytesRead, m.BytesWritten, m.Frees)
			}
			if d2b.Engine().Pending() != 0 {
				t.Fatalf("drive left %d events pending", d2b.Engine().Pending())
			}

			// SubmitBatch: a same-instant run moves the same bytes as
			// per-op submission and fires the shared callback per op.
			d2d, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			batch := []trace.Op{
				{Kind: trace.Write, Offset: 0, Size: 4096},
				{Kind: trace.Write, Offset: 4096, Size: 4096},
				{Kind: trace.Read, Offset: 0, Size: 4096},
			}
			if err := d2d.SubmitBatch(batch, func(r sim.Time, err error) {
				if err == nil && r > 0 {
					fired++
				}
			}); err != nil {
				t.Fatal(err)
			}
			d2d.Engine().Run()
			if fired != len(batch) {
				t.Fatalf("batch callbacks fired %d, want %d", fired, len(batch))
			}
			if m := d2d.Metrics(); m.BytesWritten != 8192 || m.BytesRead != 4096 {
				t.Fatalf("batch moved read %d written %d", m.BytesRead, m.BytesWritten)
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

			for i, d := range built {
				checkFlashInvariants(t, i, d)
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
	if err := d.Free(0, 16<<10); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
	if m := d.Metrics(); m.Frees != 1 {
		t.Fatalf("frees %d, want 1", m.Frees)
	}
}
