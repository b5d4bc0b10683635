package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// Snapshot is the service serialization: every field must marshal on
// every device kind, faulted or not, so reports and campaign cells stay
// column-stable. omitempty on any field would drop zero-valued keys from
// fault-free runs and fork the schema.
func TestSnapshotNoOmitempty(t *testing.T) {
	typ := reflect.TypeOf(Snapshot{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Errorf("Snapshot.%s has no json tag", f.Name)
			continue
		}
		if strings.Contains(tag, ",") {
			t.Errorf("Snapshot.%s tag %q has options; fields must serialize unconditionally", f.Name, tag)
		}
	}
	raw, err := json.Marshal(Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != typ.NumField() {
		t.Fatalf("zero Snapshot marshals %d keys, struct has %d fields", len(m), typ.NumField())
	}
}

// Every device kind serializes the identical Snapshot key set — the
// fault counters included — whether or not a plan is attached.
func TestSnapshotUniformAcrossKinds(t *testing.T) {
	want := reflect.TypeOf(Snapshot{}).NumField()
	plan := &fault.Plan{Seed: 3, Transient: &fault.Transient{Rate: 0.01}}
	for _, name := range []string{"ssd", "hdd", "mems", "raid", "osd"} {
		for _, opts := range [][]Option{nil, {WithFault(plan)}} {
			d, err := Open(name, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			raw, err := json.Marshal(d.Metrics())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(m) != want {
				t.Errorf("%s (opts %d): snapshot marshals %d keys, want %d", name, len(opts), len(m), want)
			}
		}
	}
}

// faultLoopWrites drives n sequential 4 KB writes, closed loop.
func faultLoopWrites(t *testing.T, d Device, n int) {
	t.Helper()
	i := 0
	err := d.ClosedLoop(2, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Write, Offset: int64(i%256) * 4096, Size: 4096}
		i++
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The generic injector gives non-flash media transient faults: ops slow
// down by a full retry (pause plus second service) but never fail, and
// the host-facing counters stay host-facing.
func TestFaultDeviceTransient(t *testing.T) {
	const n = 400
	clean, err := Open("hdd")
	if err != nil {
		t.Fatal(err)
	}
	faultLoopWrites(t, clean, n)
	plan := &fault.Plan{Seed: 11, Transient: &fault.Transient{Rate: 0.05, RetryUs: 20000}}
	faulty, err := Open("hdd", WithFault(plan))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := faulty.(*FaultDevice); !ok {
		t.Fatalf("faulted hdd is %T, want *FaultDevice", faulty)
	}
	faultLoopWrites(t, faulty, n)
	cm, fm := clean.Metrics(), faulty.Metrics()
	if fm.FaultsInjected == 0 {
		t.Fatal("no faults injected at 5% rate")
	}
	if fm.Errors != 0 {
		t.Fatalf("transient faults produced %d hard errors", fm.Errors)
	}
	if fm.FaultRetries != fm.FaultsInjected {
		t.Fatalf("retries %d != injected %d", fm.FaultRetries, fm.FaultsInjected)
	}
	if fm.Completed != cm.Completed || fm.BytesWritten != cm.BytesWritten {
		t.Fatalf("host counters drifted: faulty %d/%d clean %d/%d",
			fm.Completed, fm.BytesWritten, cm.Completed, cm.BytesWritten)
	}
	if fm.MeanWriteMs <= cm.MeanWriteMs {
		t.Fatalf("retry cost invisible: faulty mean %v <= clean %v", fm.MeanWriteMs, cm.MeanWriteMs)
	}
}

// An inert plan (no transients, no deaths) leaves the device unwrapped:
// wear ceilings mean nothing to media without an FTL.
func TestFaultDeviceInertPlanUnwrapped(t *testing.T) {
	d, err := Open("hdd", WithFault(&fault.Plan{WearCeiling: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*FaultDevice); ok {
		t.Fatal("inert plan still wrapped the device")
	}
}

// Past its death point the wrapped device fails every read and write
// deterministically — and keeps failing them without media time.
func TestFaultDeviceDeath(t *testing.T) {
	plan := &fault.Plan{Deaths: []fault.Death{{Element: 0, AfterOps: 10}}}
	d, err := Open("mems", WithFault(plan))
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for i := 0; i < 25; i++ {
		op := trace.Op{Kind: trace.Write, Offset: int64(i) * 4096, Size: 4096}
		err := d.Submit(op, func(_ sim.Time, err error) {
			if err != nil {
				if !errors.Is(err, fault.ErrElementDead) {
					t.Fatalf("op %d failed with %v", i, err)
				}
				failed++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Engine().Run()
	}
	if failed != 15 {
		t.Fatalf("%d ops failed, want 15 (ops 10..24)", failed)
	}
	m := d.Metrics()
	if m.Completed != 25 || m.Errors != 15 || m.FaultsInjected != 15 {
		t.Fatalf("completed %d errors %d injected %d, want 25/15/15", m.Completed, m.Errors, m.FaultsInjected)
	}
}

// An invalid op is rejected before the injector sees it: no fault is
// drawn or counted, and a dead device does not turn it into an error
// completion.
func TestFaultDeviceRejectsInvalidOps(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Deaths: []fault.Death{{Element: 0, AfterOps: 0}}}
	d, err := Open("hdd", WithFault(plan))
	if err != nil {
		t.Fatal(err)
	}
	before := d.Metrics()
	for _, op := range []trace.Op{
		{Kind: trace.Read, Offset: d.LogicalBytes(), Size: 4096},
		{Kind: trace.Write, Offset: -4096, Size: 4096},
	} {
		if err := d.Submit(op, nil); err == nil {
			t.Fatalf("accepted invalid op %+v", op)
		}
	}
	d.Engine().Run()
	if after := d.Metrics(); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected ops changed the snapshot:\n%+v\n%+v", before, after)
	}
}

// Same plan, same workload, same metrics: the injector draws from the
// keyed hash, never from shared RNG state or wall clock.
func TestFaultDeviceDeterminism(t *testing.T) {
	run := func() Snapshot {
		plan := &fault.Plan{
			Seed:      42,
			Transient: &fault.Transient{Rate: 0.03, Burst: 2, RetryUs: 15000},
			Deaths:    []fault.Death{{Element: 0, AfterOps: 350}},
		}
		d, err := Open("raid", WithFault(plan))
		if err != nil {
			t.Fatal(err)
		}
		faultLoopWrites(t, d, 400)
		return d.Metrics()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
	if a.FaultsInjected == 0 || a.Errors == 0 {
		t.Fatalf("plan was inert: %+v", a)
	}
}

// The recovery scan is real device traffic: its reads land on the same
// metrics as the truncated run it follows.
func TestReplayRecovery(t *testing.T) {
	d, err := Open("hdd")
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayRecovery(d, 0.01); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	want := int64(float64(d.LogicalBytes()) * 0.01)
	if m.BytesRead != want {
		t.Fatalf("recovery read %d bytes, want %d", m.BytesRead, want)
	}
	if m.MeanReadMs <= 0 {
		t.Fatal("recovery reads took no simulated time")
	}
}
