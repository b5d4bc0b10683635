// Package ossd's root benchmarks regenerate each table and figure of the
// paper at reduced scale, one benchmark per artifact, and report the
// headline number of each result as a custom metric. Run everything with:
//
//	go test -bench=. -benchmem
//
// cmd/repro produces the full-size report; these benches exist so the
// whole evaluation is reachable through the standard Go tooling and so
// regressions in the reproduced shapes show up as metric drift.
package ossd

import (
	"testing"

	"ossd/internal/core"
	"ossd/internal/experiments"
	"ossd/internal/flash"
	"ossd/internal/ftl"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

// BenchmarkTable1Contract probes the six unwritten-contract terms.
func BenchmarkTable1Contract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Contract(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		violated := 0
		for _, row := range r.Rows {
			if !row.SSD {
				violated++
			}
		}
		b.ReportMetric(float64(violated), "ssd-terms-violated")
	}
}

// BenchmarkTable2SeqRand regenerates the bandwidth table.
func BenchmarkTable2SeqRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(experiments.Table2Options{
			BytesPerTest:     8 << 20,
			RandBytesPerTest: 2 << 20,
			Seed:             1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Device == "HDD" {
				b.ReportMetric(row.ReadRatio, "hdd-read-ratio")
			}
			if row.Device == "S4slc_sim" {
				b.ReportMetric(row.ReadRatio, "s4-read-ratio")
			}
		}
	}
}

// BenchmarkSWTFvsFCFS regenerates the §3.2 scheduling comparison.
func BenchmarkSWTFvsFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SWTF(experiments.SWTFOptions{Ops: 15000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovementPct, "improvement-%")
	}
}

// BenchmarkFigure2WriteAmplification regenerates the saw-tooth sweep.
func BenchmarkFigure2WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(experiments.Figure2Options{
			MaxBytes: 3 << 20, StepBytes: 256 << 10, BytesPerPoint: 8 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PeakMBps, "peak-MBps")
		b.ReportMetric(r.TroughMBps, "trough-MBps")
	}
}

// BenchmarkTable3Alignment regenerates the alignment-vs-sequentiality table.
func BenchmarkTable3Alignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(experiments.Table3Options{Ops: 6000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Aligned) - 1
		imp := (r.Unaligned[last] - r.Aligned[last]) / r.Unaligned[last] * 100
		b.ReportMetric(imp, "p0.8-improvement-%")
	}
}

// BenchmarkTable4Macro regenerates the macro-benchmark table.
func BenchmarkTable4Macro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(experiments.Table4Options{Scale: 0.4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for j, w := range r.Workloads {
			if w == "IOzone" {
				b.ReportMetric(r.ImprovementPct[j], "iozone-improvement-%")
			}
		}
	}
}

// BenchmarkTable5InformedCleaning regenerates the informed-cleaning table.
func BenchmarkTable5InformedCleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(experiments.Table5Options{Transactions: []int{4000}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RelPagesMoved[0], "rel-pages-moved")
		b.ReportMetric(r.RelCleanTime[0], "rel-clean-time")
	}
}

// BenchmarkFigure3PriorityCleaning regenerates the priority-aware sweep
// (and Table 6, which is derived from the same run).
func BenchmarkFigure3PriorityCleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(experiments.Figure3Options{
			Ops: 60000, Seed: 1, WritePcts: []int{50, 80},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovementPct[0], "fg-improvement-50w-%")
	}
}

// ---- ablation benches: the design choices DESIGN.md calls out ----

// benchDevice builds a small interleaved device for ablations.
func benchDevice(b *testing.B, mutate func(*ssd.Config)) *core.SSD {
	b.Helper()
	cfg := ssd.Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
		Overprovision: 0.10,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  10 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := core.NewSSD(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// churn drives a device through skewed random overwrites and returns the
// aggregated wear spread and cleaning stats.
func churn(b *testing.B, d *core.SSD, seed int64) (spread int, moved int64) {
	b.Helper()
	if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
		b.Fatal(err)
	}
	space := int64(float64(d.LogicalBytes()) * 0.8)
	hot := space / 10
	rng := sim.NewRNG(seed)
	n := int(space / 4096 * 10)
	i := 0
	err := d.ClosedLoop(4, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		i++
		region := hot
		if rng.Bool(0.1) {
			region = space
		}
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(region/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		b.Fatal(err)
	}
	min, max := 1<<30, 0
	for _, el := range d.Raw.Elements() {
		w := el.Wear()
		if w.Min < min {
			min = w.Min
		}
		if w.Max > max {
			max = w.Max
		}
	}
	return max - min, d.Raw.GCStats().PagesMoved
}

// BenchmarkAblationWearLeveling compares wear spread with and without the
// dual-pool cold-data migration under a skewed workload.
func BenchmarkAblationWearLeveling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := benchDevice(b, nil)
		spreadOff, _ := churn(b, plain, 7)
		aware := benchDevice(b, func(c *ssd.Config) { c.WearAware = true; c.WearDelta = 16 })
		spreadOn, _ := churn(b, aware, 7)
		b.ReportMetric(float64(spreadOff), "spread-greedy")
		b.ReportMetric(float64(spreadOn), "spread-wear-aware")
	}
}

// BenchmarkAblationOverprovision sweeps spare capacity and reports the
// cleaning relocation volume: more spare area, fewer pages moved.
func BenchmarkAblationOverprovision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var movedLow, movedHigh int64
		d := benchDevice(b, func(c *ssd.Config) { c.Overprovision = 0.07 })
		_, movedLow = churn(b, d, 9)
		d = benchDevice(b, func(c *ssd.Config) { c.Overprovision = 0.25 })
		_, movedHigh = churn(b, d, 9)
		b.ReportMetric(float64(movedLow), "moved-op7%")
		b.ReportMetric(float64(movedHigh), "moved-op25%")
	}
}

// BenchmarkAblationInformedFreeRatio measures informed cleaning's
// sensitivity to how much of the written data is freed.
func BenchmarkAblationInformedFreeRatio(b *testing.B) {
	run := func(freeFrac float64) int64 {
		d := benchDevice(b, func(c *ssd.Config) { c.Informed = true })
		if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
			b.Fatal(err)
		}
		space := int64(float64(d.LogicalBytes()) * 0.8)
		rng := sim.NewRNG(11)
		n := int(space / 4096 * 3)
		i := 0
		err := d.ClosedLoop(2, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			off := rng.Int63n(space/4096) * 4096
			if rng.Bool(freeFrac) {
				return trace.Op{Kind: trace.Free, Offset: off, Size: 4096}, true
			}
			return trace.Op{Kind: trace.Write, Offset: off, Size: 4096}, true
		})
		if err != nil {
			b.Fatal(err)
		}
		return d.Raw.GCStats().PagesMoved
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(0.0)), "moved-free0%")
		b.ReportMetric(float64(run(0.3)), "moved-free30%")
	}
}

// BenchmarkAblationWriteBuffer shows the S3 observation: a write buffer
// masks single-write latency but not sustained random-write bandwidth.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	run := func(buf int64) (latencyMs, mbps float64) {
		// Full-stripe layout: every write occupies the whole gang, so a
		// deeper drain queue cannot add parallelism — the regime where
		// the paper observed the cache was "ineffective".
		d := benchDevice(b, func(c *ssd.Config) {
			c.WriteBufferBytes = buf
			c.Layout = ssd.FullStripe
			c.StripeBytes = 32 << 10
		})
		if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
			b.Fatal(err)
		}
		// Single isolated write: latency.
		var resp sim.Time
		d.Raw.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096},
			func(r *ssd.Request) { resp = r.Response() })
		d.Engine().Run()
		// Sustained random writes: bandwidth.
		bw, err := core.MeasureBandwidth(d, core.BWOptions{
			Kind: trace.Write, Pattern: core.Random,
			ReqBytes: 4096, TotalBytes: 8 << 20, Depth: 8, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		return resp.Millis(), bw
	}
	for i := 0; i < b.N; i++ {
		latNo, bwNo := run(0)
		latYes, bwYes := run(16 << 20)
		b.ReportMetric(latNo, "latency-ms-nobuf")
		b.ReportMetric(latYes, "latency-ms-buf")
		b.ReportMetric(bwNo, "MBps-nobuf")
		b.ReportMetric(bwYes, "MBps-buf")
	}
}

// BenchmarkAblationGCPolicy compares greedy vs cost-benefit victim
// selection on a hot/cold workload.
func BenchmarkAblationGCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		greedy := benchDevice(b, nil)
		_, movedGreedy := churn(b, greedy, 13)
		cb := benchDevice(b, func(c *ssd.Config) { c.CostBenefit = true })
		_, movedCB := churn(b, cb, 13)
		b.ReportMetric(float64(movedGreedy), "moved-greedy")
		b.ReportMetric(float64(movedCB), "moved-costbenefit")
	}
}

// BenchmarkRunnerSerial and BenchmarkRunnerParallel run the same reduced
// Table 2 through the experiment runner at one worker and at the
// GOMAXPROCS default; their ratio is the evaluation's fan-out speedup on
// this machine (1.0 on a single-core host).
func benchTable2(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.Table2Options{
			BytesPerTest:     4 << 20,
			RandBytesPerTest: 1 << 20,
			Seed:             1,
			Workers:          workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerSerial(b *testing.B)   { benchTable2(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { benchTable2(b, runner.DefaultWorkers()) }

// BenchmarkOSDDeviceWritePath measures block writes traveling the object
// path (extent lookup + store bookkeeping) against the raw device.
func BenchmarkOSDDeviceWritePath(b *testing.B) {
	d, err := core.NewOSD(ssd.Config{
		Elements:      8,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 64},
		Overprovision: 0.10,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  10 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := d.LogicalBytes()
	rng := sim.NewRNG(5)
	b.ResetTimer()
	i := 0
	err = d.ClosedLoop(4, func(int) (trace.Op, bool) {
		if i >= b.N {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineThroughput measures the raw event engine through the
// legacy closure API (After); the pooled path is BenchmarkEngineChurn.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

// BenchmarkEngineSchedule measures one schedule+fire cycle against a
// deep heap: 4096 events stay pending, so every push sifts through a
// realistically tall four-ary tree. The pooled Call path must not
// allocate in steady state.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	nop := func(any) {}
	rng := sim.NewRNG(1)
	const depth = 4096
	for i := 0; i < depth; i++ {
		eng.Call(sim.Time(rng.Intn(1000)+1), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Call(sim.Time(rng.Intn(1000)+1), nop, nil)
		eng.Step()
	}
}

// churnState carries a self-rescheduling timer for BenchmarkEngineChurn;
// the pointer rides through the event's any slot without boxing.
type churnState struct {
	eng  *sim.Engine
	left int
}

// churnEvent fires and reschedules itself until the countdown drains —
// the steady-state motion of every device completion in a simulation.
func churnEvent(a any) {
	s := a.(*churnState)
	if s.left > 0 {
		s.left--
		s.eng.Call(1, churnEvent, s)
	}
}

// BenchmarkEngineChurn is the zero-allocation contract of the pooled
// event engine: 256 concurrent self-rescheduling timers (a gang of
// in-flight requests) burn through b.N events total. CI gates this
// benchmark at exactly 0 allocs/op — the event heap is flat event
// values, the callbacks are package functions, and the payloads are
// pointers, so nothing escapes per event.
func BenchmarkEngineChurn(b *testing.B) {
	eng := sim.NewEngine()
	const timers = 256
	share := b.N / timers
	states := make([]*churnState, timers)
	for i := range states {
		states[i] = &churnState{eng: eng, left: share}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, s := range states {
		eng.Call(1, churnEvent, s)
	}
	eng.Run()
}

// BenchmarkFTLWritePath measures the per-page write cost of the FTL under
// steady-state cleaning.
func BenchmarkFTLWritePath(b *testing.B) {
	el, err := ftl.NewElement(ftl.Config{
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: 256},
		Timing:        flash.TimingFor(flash.SLC),
		Overprovision: 0.10,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := el.LogicalPages()
	for lpn := 0; lpn < n; lpn++ {
		if _, err := el.WritePage(lpn); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := el.WritePage(rng.Intn(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRandomWrites measures end-to-end simulated random writes
// per wall-clock second (events through the full device stack).
func BenchmarkDeviceRandomWrites(b *testing.B) {
	d := benchDevice(b, nil)
	if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
		b.Fatal(err)
	}
	space := int64(float64(d.LogicalBytes()) * 0.6)
	rng := sim.NewRNG(5)
	b.ResetTimer()
	i := 0
	err := d.ClosedLoop(4, func(int) (trace.Op, bool) {
		if i >= b.N {
			return trace.Op{}, false
		}
		i++
		return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}, true
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeviceSteadyMix is the layer benchmark in the load shape of
// the repository benchmark's steady workload: the base SSD profile
// preconditioned to 80%, then a depth-8 closed loop of uniform random
// 4 KiB ops, half reads and half writes, through core.ClosedLoop, so
// cleaning runs all the time. One op is one iteration; the host
// completion path must not allocate per op.
func BenchmarkDeviceSteadyMix(b *testing.B) {
	d, err := core.Open("ssd")
	if err != nil {
		b.Fatal(err)
	}
	if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
		b.Fatal(err)
	}
	s, err := workload.Synthetic(workload.SyntheticConfig{
		Ops:          b.N,
		AddressSpace: d.LogicalBytes(),
		ReadFrac:     0.5,
		ReqSize:      4096,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := d.ClosedLoop(8, func(int) (trace.Op, bool) { return s.Next() }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAlignerThroughput measures the merge/align pass itself.
func BenchmarkAlignerThroughput(b *testing.B) {
	ops, err := workload.SyntheticOps(workload.SyntheticConfig{
		Ops: 10000, AddressSpace: 1 << 28, ReqSize: 4096, SeqProb: 0.6, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Align(ops, 32<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriveStream1M drives a one-million-op synthetic stream
// through Device.Drive on the base SSD profile. The point is the memory
// shape, not the speed: b.ReportAllocs shows constant allocations per
// op (a few small closures), and the benchmark fails outright if the
// event heap ever holds more than a bounded number of pending events —
// a Drive that materialized the stream would schedule a million
// arrivals up front. O(1) memory in the stream's length, where the
// slice-era Play was O(n).
func BenchmarkDriveStream1M(b *testing.B) {
	const million = 1_000_000
	for i := 0; i < b.N; i++ {
		d, err := core.Open("ssd")
		if err != nil {
			b.Fatal(err)
		}
		// Reads over a preconditioned region at a gentle open-loop rate:
		// the device keeps up, so queues (and memory) stay flat.
		if err := core.PreconditionFrac(d, 1<<20, 0.5); err != nil {
			b.Fatal(err)
		}
		space := int64(float64(d.LogicalBytes()) * 0.5)
		stream, err := workload.Synthetic(workload.SyntheticConfig{
			Ops:            million,
			AddressSpace:   space,
			ReadFrac:       1.0,
			ReqSize:        4096,
			InterarrivalLo: 90 * sim.Microsecond,
			InterarrivalHi: 110 * sim.Microsecond,
			Seed:           3,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Sample the event heap on every pull: the O(1) guard.
		maxPending := 0
		probed := trace.Func(func() (trace.Op, bool) {
			if p := d.Engine().Pending(); p > maxPending {
				maxPending = p
			}
			return stream.Next()
		})
		b.ReportAllocs()
		if err := d.Drive(trace.Shift(probed, d.Engine().Now())); err != nil {
			b.Fatal(err)
		}
		if got := d.Metrics().Completed; got < million {
			b.Fatalf("completed %d of %d", got, million)
		}
		if maxPending > 1024 {
			b.Fatalf("event heap peaked at %d pending events — the stream is being materialized", maxPending)
		}
		b.ReportMetric(float64(maxPending), "max-pending-events")
	}
}

// ---- dispatch-path benchmarks: the indexed scheduler vs the scan ----

// dispatchPayload stands in for the *ssd.Request payload a real queue
// carries; pointers avoid interface boxing in the benchmark loop.
type dispatchPayload struct{ elem int }

// BenchmarkDispatchSWTF measures one steady-state SWTF dispatch decision
// on the indexed sched.Queue — pop the winner, mark its element busy,
// push a replacement — at fixed pending depths. The queue's heaps hold
// element-set groups, not requests, so a dispatch costs O(log G) in the
// G = 64 single-element sets here and the depth barely moves it; the
// pick path must not allocate: this is the tentpole contract of the
// indexed scheduler.
func BenchmarkDispatchSWTF(b *testing.B) {
	for _, depth := range []int{1024, 16384, 65536} {
		name := map[int]string{1024: "1k", 16384: "16k", 65536: "64k"}[depth]
		b.Run(name, func(b *testing.B) {
			const elements = 64
			q := sched.NewQueue(sched.SWTF, elements)
			elems := make([][]int, elements)
			payloads := make([]*dispatchPayload, elements)
			for e := 0; e < elements; e++ {
				elems[e] = []int{e}
				payloads[e] = &dispatchPayload{elem: e}
			}
			for i := 0; i < depth; i++ {
				q.Push(elems[i%elements], payloads[i%elements])
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, ok := q.Pop(now)
				if !ok {
					b.Fatal("steady-state pop failed")
				}
				e := data.(*dispatchPayload).elem
				q.SetBusy(e, now+1)
				q.Push(elems[i%elements], payloads[i%elements])
				now++
			}
		})
	}
}

// backlogReq is one request shape of BenchmarkDispatchSWTFBacklog: the
// elements it stripes over and its per-element service time.
type backlogReq struct {
	elems   []int
	service sim.Time
}

// BenchmarkDispatchSWTFBacklog measures one SWTF dispatch under the load
// shape of the postmark replay, where the queue did almost all the work:
// a 4-element device, requests striped over 1–4 consecutive elements
// (wrapping), and a 4,096-deep backlog that arrivals built up faster than
// the elements serve it. Each op dispatches one request — advancing the
// clock to the next busy horizon when nothing is dispatchable — marks its
// elements busy, and admits one arrival, so the backlog stays 4,096 deep.
// A wake here touches the groups parked on one element (at most 13
// distinct sets), not the backlog: about 630 ns/op on a 2-CPU Xeon,
// against 370 µs/op when the queue indexed single requests and each
// wake re-parked the element's whole backlog. The op must not allocate.
func BenchmarkDispatchSWTFBacklog(b *testing.B) {
	const elements, depth = 4, 4096
	reqs := make([]*backlogReq, 256)
	for i := range reqs {
		// A fixed LCG keeps the request mix identical across runs.
		x := uint32(i)*2654435761 + 12345
		start, width := int(x>>8)%elements, 1+int(x>>16)%elements
		r := &backlogReq{service: sim.Time(20 + int(x>>24)%40)}
		for j := 0; j < width; j++ {
			r.elems = append(r.elems, (start+j)%elements)
		}
		reqs[i] = r
	}
	q := sched.NewQueue(sched.SWTF, elements)
	for i := 0; i < depth; i++ {
		r := reqs[i%len(reqs)]
		q.Push(r.elems, r)
	}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, ok := q.Pop(now)
		for !ok {
			next := q.Busy(0)
			for e := 1; e < elements; e++ {
				if h := q.Busy(e); h > now && (next <= now || h < next) {
					next = h
				}
			}
			now = next
			data, ok = q.Pop(now)
		}
		r := data.(*backlogReq)
		for _, e := range r.elems {
			q.SetBusy(e, now+r.service)
		}
		r = reqs[(depth+i)%len(reqs)]
		q.Push(r.elems, r)
	}
}

// BenchmarkDispatchSWTFScan replays the pre-refactor dispatch machinery
// at the same depths: rebuild the entries slice (the per-pick allocation
// the old device paid), scan it with sched.Pick, and compact the pending
// slice by index. Its ratio to BenchmarkDispatchSWTF is the refactor's
// speedup; the acceptance floor is 10x at 64k.
func BenchmarkDispatchSWTFScan(b *testing.B) {
	for _, depth := range []int{1024, 16384, 65536} {
		name := map[int]string{1024: "1k", 16384: "16k", 65536: "64k"}[depth]
		b.Run(name, func(b *testing.B) {
			const elements = 64
			busy := make([]sim.Time, elements)
			pending := make([]*sched.Entry, 0, depth)
			seq := uint64(0)
			for i := 0; i < depth; i++ {
				seq++
				pending = append(pending, &sched.Entry{Elems: []int{i % elements}, Seq: seq})
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The scan-era device copied its pending jobs into a fresh
				// entries slice on every pick.
				entries := make([]*sched.Entry, len(pending))
				copy(entries, pending)
				idx := sched.Pick(sched.SWTF, entries, busy, now)
				if idx < 0 {
					b.Fatal("steady-state pick failed")
				}
				// Elements stay idle so every pick dispatches, matching the
				// indexed benchmark's steady state.
				pending = append(pending[:idx], pending[idx+1:]...)
				seq++
				pending = append(pending, &sched.Entry{Elems: []int{i % elements}, Seq: seq})
				now++
			}
		})
	}
}

// BenchmarkDispatchSWTFTenants is BenchmarkDispatchSWTF with the
// weighted fair-share layer engaged: four tenant classes at unequal
// weights, every push tagged and costed. The DRR pick path must hold
// the same contract as the single-tenant one — no allocations at any
// depth — so tenancy is free for runs that don't use it and O(tenants)
// for runs that do.
func BenchmarkDispatchSWTFTenants(b *testing.B) {
	for _, depth := range []int{1024, 16384, 65536} {
		name := map[int]string{1024: "1k", 16384: "16k", 65536: "64k"}[depth]
		b.Run(name, func(b *testing.B) {
			const elements = 64
			q := sched.NewQueue(sched.SWTF, elements)
			q.SetTenantWeight(1, 1)
			q.SetTenantWeight(2, 4)
			q.SetTenantWeight(3, 2)
			q.SetTenantWeight(4, 8)
			elems := make([][]int, elements)
			payloads := make([]*dispatchPayload, elements)
			for e := 0; e < elements; e++ {
				elems[e] = []int{e}
				payloads[e] = &dispatchPayload{elem: e}
			}
			for i := 0; i < depth; i++ {
				q.PushT(elems[i%elements], payloads[i%elements], uint8(1+i%4), 4096)
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, ok := q.Pop(now)
				if !ok {
					b.Fatal("steady-state pop failed")
				}
				e := data.(*dispatchPayload).elem
				q.SetBusy(e, now+1)
				q.PushT(elems[i%elements], payloads[i%elements], uint8(1+i%4), 4096)
				now++
			}
		})
	}
}

// BenchmarkExtensionSchemes regenerates the FTL-scheme comparison.
func BenchmarkExtensionSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Schemes(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RandWrite[0], "page-randwrite-MBps")
		b.ReportMetric(r.RandWrite[2], "block-randwrite-MBps")
	}
}

// BenchmarkExtensionLifetime regenerates the endurance comparison.
func BenchmarkExtensionLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Lifetime(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HostMB[0], "greedy-hostMB")
		b.ReportMetric(r.HostMB[1], "leveled-hostMB")
	}
}
