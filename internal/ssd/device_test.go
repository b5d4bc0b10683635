package ssd

import (
	"math/rand"
	"testing"

	"ossd/internal/flash"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// testConfig builds a small interleaved device: 4 elements, 8 pages per
// block, 32 blocks per element (4 MB raw).
func testConfig() Config {
	return Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        Interleaved,
		// The tiny test geometry (8 pages/block, 32 blocks) makes the
		// FTL's 2-block forced-clean slack 6.25% of capacity, so the
		// watermarks sit above it; production geometries use the paper's
		// 5%/2%.
		GCLow:      0.12,
		GCCritical: 0.03,
	}
}

// stripeConfig builds a small full-stripe device: 4 elements, 16 KB
// stripe (one page per element per stripe).
func stripeConfig() Config {
	c := testConfig()
	c.Layout = FullStripe
	c.StripeBytes = 4 * 4096
	return c
}

// gangConfig builds an 8-element interleaved SWTF device with watermarks
// low enough that randomized workloads trigger cleaning.
func gangConfig() Config {
	return Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 8, BlocksPerPackage: 32},
		Overprovision: 0.15,
		Layout:        Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  20 * sim.Microsecond,
		GCLow:         0.12,
		GCCritical:    0.03,
	}
}

func newDevice(t *testing.T, cfg Config) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

// closedLoop keeps depth requests outstanding on d, drawing operations
// from gen until it returns false, then runs the engine dry; it returns
// the first submission error. It is core's closed loop restated over the
// raw device for the tests that read the model's unexported state
// (package core imports ssd, so these tests cannot use core's).
func closedLoop(d *Device, depth int, gen func(i int) (trace.Op, bool)) error {
	var firstErr error
	i := 0
	var issue func()
	reissue := func(*Request) { issue() }
	issue = func() {
		op, ok := gen(i)
		if !ok {
			return
		}
		i++
		if err := d.Submit(op, reissue); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for k := 0; k < depth; k++ {
		issue()
	}
	d.eng.Run()
	return firstErr
}

func TestConfigValidate(t *testing.T) {
	c := testConfig()
	c.Elements = 0
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted zero elements")
	}
	c = stripeConfig()
	c.StripeBytes = 4096 // not a multiple of elements*page
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted bad stripe size")
	}
	c = testConfig()
	c.GCCritical = 0.5
	c.GCLow = 0.1
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted critical above low")
	}
	c = testConfig()
	c.GCLow = 1.5
	if _, err := New(sim.NewEngine(), c); err == nil {
		t.Error("accepted watermark above 1")
	}
}

func TestLayoutString(t *testing.T) {
	if FullStripe.String() != "full-stripe" || Interleaved.String() != "interleaved" {
		t.Fatal("layout strings")
	}
}

func TestLogicalBytes(t *testing.T) {
	_, d := newDevice(t, testConfig())
	// 4 elements * 217 logical pages * 4096.
	want := int64(4) * 217 * 4096
	if d.LogicalBytes() != want {
		t.Fatalf("LogicalBytes = %d, want %d", d.LogicalBytes(), want)
	}
	_, ds := newDevice(t, stripeConfig())
	// Stripes per element: 217 pages / 1 page-per-chunk = 217 stripes.
	if ds.LogicalBytes() != 217*4*4096 {
		t.Fatalf("stripe LogicalBytes = %d", ds.LogicalBytes())
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d := newDevice(t, testConfig())
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 0}, nil); err == nil {
		t.Error("accepted zero-size op")
	}
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: d.LogicalBytes(), Size: 4096}, nil); err == nil {
		t.Error("accepted op beyond capacity")
	}
}

func TestSingleWriteCompletes(t *testing.T) {
	eng, d := newDevice(t, testConfig())
	var done *Request
	if err := d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, func(r *Request) { done = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == nil {
		t.Fatal("write never completed")
	}
	if done.Err != nil {
		t.Fatal(done.Err)
	}
	// One page program: 200us + 102.4us bus.
	want := 200*sim.Microsecond + 4096*25*sim.Nanosecond
	if done.Response() != want {
		t.Fatalf("response = %v, want %v", done.Response(), want)
	}
	m := d.Metrics()
	if m.Completed != 1 || m.BytesWritten != 4096 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestParallelElementsOverlap(t *testing.T) {
	// Two single-page writes to different elements must overlap in time;
	// two writes to the same element must serialize.
	eng, d := newDevice(t, testConfig())
	var r1, r2, r3 *Request
	// Pages 0 and 1 land on elements 0 and 1 (interleaved).
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, func(r *Request) { r1 = r })
	d.Submit(trace.Op{Kind: trace.Write, Offset: 4096, Size: 4096}, func(r *Request) { r2 = r })
	// Page 4 is element 0 again.
	d.Submit(trace.Op{Kind: trace.Write, Offset: 4 * 4096, Size: 4096}, func(r *Request) { r3 = r })
	eng.Run()
	if r1.Done != r2.Done {
		t.Fatalf("parallel writes did not overlap: %v vs %v", r1.Done, r2.Done)
	}
	if r3.Done <= r1.Done {
		t.Fatalf("same-element write did not serialize: %v vs %v", r3.Done, r1.Done)
	}
}

func TestMultiPageRequestSpansElements(t *testing.T) {
	// A 16 KB write over 4 elements takes one page time (plus overhead),
	// not four.
	eng, d := newDevice(t, testConfig())
	var r *Request
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4 * 4096}, func(x *Request) { r = x })
	eng.Run()
	onePage := 200*sim.Microsecond + 4096*25*sim.Nanosecond
	if r.Response() != onePage {
		t.Fatalf("striped write response = %v, want %v", r.Response(), onePage)
	}
}

func TestReadAfterWrite(t *testing.T) {
	eng, d := newDevice(t, testConfig())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 8192}, nil)
	var rd *Request
	d.Submit(trace.Op{Kind: trace.Read, Offset: 0, Size: 8192}, func(r *Request) { rd = r })
	eng.Run()
	if rd == nil || rd.Err != nil {
		t.Fatalf("read failed: %+v", rd)
	}
	m := d.Metrics()
	if m.BytesRead != 8192 || m.ReadResp.N() != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestFullStripeWriteAmplification(t *testing.T) {
	// On a full-stripe device, a 4 KB write must rewrite the whole 16 KB
	// stripe (4 pages), and after the stripe is mapped, also read back
	// the 3 uncovered pages.
	eng, d := newDevice(t, stripeConfig())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4 * 4096}, nil) // precondition stripe 0
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil)     // partial write
	eng.Run()
	g := d.GCStats()
	// 4 pages precondition + 4 pages RMW = 8 page writes for 20 KB host.
	if g.HostPageWrites != 8 {
		t.Fatalf("page writes = %d, want 8", g.HostPageWrites)
	}
	// RMW read the 3 uncovered mapped pages.
	if g.HostPageReads != 3 {
		t.Fatalf("page reads = %d, want 3", g.HostPageReads)
	}
	if wa := d.WriteAmplification(); wa <= 1 {
		t.Fatalf("write amplification = %v, want > 1", wa)
	}
}

func TestFullStripeAlignedWriteNoRMW(t *testing.T) {
	eng, d := newDevice(t, stripeConfig())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4 * 4096}, nil)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4 * 4096}, nil) // aligned overwrite
	eng.Run()
	if g := d.GCStats(); g.HostPageReads != 0 {
		t.Fatalf("aligned overwrite read %d pages, want 0", g.HostPageReads)
	}
}

func TestSubPageWriteRMWInterleaved(t *testing.T) {
	eng, d := newDevice(t, testConfig())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 512}, nil) // sub-page rewrite
	eng.Run()
	g := d.GCStats()
	if g.HostPageReads != 1 {
		t.Fatalf("sub-page RMW reads = %d, want 1", g.HostPageReads)
	}
	if g.HostPageWrites != 2 {
		t.Fatalf("page writes = %d, want 2", g.HostPageWrites)
	}
}

func TestFreeAppliesImmediately(t *testing.T) {
	cfg := testConfig()
	cfg.Informed = true
	eng, d := newDevice(t, cfg)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 16 * 4096}, nil)
	eng.Run()
	var fr *Request
	d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 16 * 4096}, func(r *Request) { fr = r })
	if fr == nil || fr.Response() != 0 {
		t.Fatal("free not applied immediately")
	}
	g := d.GCStats()
	if g.FreesApplied != 16 {
		t.Fatalf("frees applied = %d, want 16", g.FreesApplied)
	}
}

func TestFreePartialUnitIgnored(t *testing.T) {
	cfg := testConfig()
	cfg.Informed = true
	eng, d := newDevice(t, cfg)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 8192}, nil)
	eng.Run()
	// Free covering half of page 0 and half of page 1: no full page.
	d.Submit(trace.Op{Kind: trace.Free, Offset: 2048, Size: 4096}, nil)
	if g := d.GCStats(); g.FreesApplied != 0 {
		t.Fatalf("partial free applied %d pages", g.FreesApplied)
	}
}

func TestSustainedLoadTriggersDeviceCleaning(t *testing.T) {
	cfg := testConfig()
	eng, d := newDevice(t, cfg)
	rng := rand.New(rand.NewSource(21))
	cap := d.LogicalBytes()
	n := int(cap / 4096)
	// Fill once, then overwrite randomly 4x capacity.
	i := 0
	gen := func(k int) (trace.Op, bool) {
		if i >= 5*n {
			return trace.Op{}, false
		}
		var off int64
		if i < n {
			off = int64(i) * 4096
		} else {
			off = int64(rng.Intn(n)) * 4096
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: off, Size: 4096}, true
	}
	if err := closedLoop(d, 1, gen); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	m := d.Metrics()
	if m.Completed != int64(5*n) {
		t.Fatalf("completed %d of %d", m.Completed, 5*n)
	}
	if m.BackgroundCleans == 0 {
		t.Fatal("device never initiated cleaning under sustained load")
	}
	for _, el := range d.Elements() {
		if err := el.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFCFSHeadOfLineVsSWTF(t *testing.T) {
	// Construct the §3.2 scenario: element 0 busy with a long run of
	// requests while element 1 sits idle; a request to element 1 arrives
	// behind them. SWTF must finish it sooner than FCFS.
	run := func(policy sched.Policy) sim.Time {
		cfg := testConfig()
		cfg.Scheduler = policy
		eng, d := newDevice(t, cfg)
		// Requests to pages 0, 4, 8 (all element 0), then page 1
		// (element 1).
		for _, p := range []int64{0, 4, 8} {
			d.Submit(trace.Op{Kind: trace.Write, Offset: p * 4096, Size: 4096}, nil)
		}
		var last *Request
		d.Submit(trace.Op{Kind: trace.Write, Offset: 1 * 4096, Size: 4096}, func(r *Request) { last = r })
		eng.Run()
		return last.Response()
	}
	fcfs := run(sched.FCFS)
	swtf := run(sched.SWTF)
	if swtf >= fcfs {
		t.Fatalf("SWTF response %v not better than FCFS %v", swtf, fcfs)
	}
}

func TestPriorityMetricsSplit(t *testing.T) {
	eng, d := newDevice(t, testConfig())
	d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096, Priority: true}, nil)
	d.Submit(trace.Op{Kind: trace.Write, Offset: 4096, Size: 4096}, nil)
	eng.Run()
	m := d.Metrics()
	if m.PriResp.N() != 1 || m.BgResp.N() != 1 {
		t.Fatalf("priority split: pri=%d bg=%d", m.PriResp.N(), m.BgResp.N())
	}
}

func TestQueueDepth(t *testing.T) {
	eng, d := newDevice(t, testConfig())
	// Saturate element 0 so later same-element requests queue.
	for i := 0; i < 3; i++ {
		d.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil)
	}
	if d.QueueDepth() == 0 {
		t.Fatal("queue empty while element busy")
	}
	eng.Run()
	if d.QueueDepth() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestWearOutSurfacesAsRequestError(t *testing.T) {
	cfg := testConfig()
	cfg.EraseBudget = 2
	eng, d := newDevice(t, cfg)
	rng := rand.New(rand.NewSource(5))
	n := int(d.LogicalBytes() / 4096)
	sawErr := false
	i := 0
	gen := func(int) (trace.Op, bool) {
		if i >= 50*n || sawErr {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: int64(rng.Intn(n)) * 4096, Size: 4096}, true
	}
	closedLoop(d, 1, func(k int) (trace.Op, bool) {
		op, ok := gen(k)
		return op, ok
	})
	eng.Run()
	if d.Metrics().Errors == 0 {
		t.Skip("workload did not exhaust 2-cycle budget; acceptable for tiny device")
	}
}

// TestRequestFreelistSteadyState pins the allocation contract: once
// warm, the submit/complete cycle reuses pooled requests.
func TestRequestFreelistSteadyState(t *testing.T) {
	d, err := New(sim.NewEngine(), gangConfig())
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	// Warm the pool and the FTL mappings.
	for i := 0; i < 64; i++ {
		if err := d.Submit(trace.Op{Kind: trace.Write, Offset: off, Size: 4096}, nil); err != nil {
			t.Fatal(err)
		}
		off += 4096
		d.eng.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Submit(trace.Op{Kind: trace.Write, Offset: off % (1 << 20), Size: 4096}, nil); err != nil {
			t.Fatal(err)
		}
		off += 4096
		d.eng.Run()
	})
	if allocs > 0 {
		t.Fatalf("submit/complete cycle allocates %.1f per op, want 0", allocs)
	}
}
