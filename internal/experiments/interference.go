package experiments

import (
	"ossd/internal/core"
	"ossd/internal/flash"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Interference is the tenancy extension experiment: a latency-sensitive
// victim tenant (paced 4 KiB reads) shares one flash device with a
// bursty aggressor tenant (saturating 16 KiB writes), and the sweep
// walks the victim's fair-share weight from "no isolation" through
// increasingly strong shares. Without fair-share the aggressor's bursts
// queue ahead of the victim and its read tail collapses; weighted
// deficit-round-robin dispatch restores it, bounded below by the
// victim's solo tail. Every configuration is deterministic for a fixed
// seed at any worker count.

// InterferenceRow is one fairness configuration's outcome.
type InterferenceRow struct {
	Config string
	// Victim read latency (the isolation signal).
	VictimP99ReadMs  float64
	VictimMeanReadMs float64
	// Aggressor progress (the price of isolation).
	AggressorWriteMBps float64
}

// InterferenceResult is the sweep across fairness weights.
type InterferenceResult struct {
	Rows []InterferenceRow
}

// ID implements Result.
func (InterferenceResult) ID() string { return "interference" }

func (r InterferenceResult) String() string {
	t := stats.NewTable("Extension: multi-tenant interference and fair-share isolation",
		"Config", "VictimP99Read(ms)", "VictimMeanRead(ms)", "AggrWrite(MB/s)")
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.VictimP99ReadMs, row.VictimMeanReadMs, row.AggressorWriteMBps)
	}
	t.AddNote("victim: paced 4 KiB reads (tenant 1); aggressor: bursty 16 KiB writes")
	t.AddNote("(tenant 2). weights are victim:aggressor; unfair = no fair-share layer.")
	return t.String()
}

// interferenceDevice builds the shared device: the faultlife geometry
// (small, interleaved, SWTF) minus the fault plan, with
// the configuration's fair-share weights engaged when present.
func interferenceDevice(weights map[uint8]float64) (core.Device, error) {
	cfg := ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 32, BlocksPerPackage: 64},
		Overprovision: 0.25,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  5 * sim.Microsecond,
		GCLow:         0.06, GCCritical: 0.03,
	}
	opts := []core.Option{core.WithSSD(cfg)}
	if weights != nil {
		opts = append(opts, core.WithTenantWeights(weights))
	}
	return core.Open("ssd", opts...)
}

// interferenceStream builds the two-tenant mix: the victim's reads are
// paced well under the device's capacity, the aggressor's writes arrive
// far over it in 10 ms on / 30 ms off bursts, so every victim op issued
// during a burst contends with a deep aggressor backlog.
func interferenceStream(seed int64, space int64) (trace.Stream, error) {
	const (
		victimOps    = 1536
		aggressorOps = 5120
	)
	rngV := sim.NewRNG(seed)
	victim := make([]trace.Op, victimOps)
	var at sim.Time
	for i := range victim {
		at += sim.Time(100+rngV.Int63n(100)) * sim.Microsecond
		victim[i] = trace.Op{At: at, Kind: trace.Read, Offset: rngV.Int63n(space/4096) * 4096, Size: 4096}
	}
	rngA := sim.NewRNG(seed + 1)
	aggressor := make([]trace.Op, aggressorOps)
	at = 0
	for i := range aggressor {
		at += sim.Time(5+rngA.Int63n(10)) * sim.Microsecond
		aggressor[i] = trace.Op{Kind: trace.Write, At: at, Offset: rngA.Int63n(space/16384) * 16384, Size: 16384}
	}
	return trace.MergeTenants([]trace.TenantStream{
		{Tenant: 1, Stream: trace.FromSlice(victim)},
		{Tenant: 2, Stream: trace.FromSlice(aggressor),
			Mod: trace.Modulation{Kind: "bursty", Period: 40 * sim.Millisecond, Duty: 0.25}},
	})
}

// interferenceRun preconditions, drives the mix, and reads the victim's
// tail and the aggressor's throughput out of the per-tenant snapshot.
func interferenceRun(seed int64, weights map[uint8]float64) (InterferenceRow, error) {
	d, err := interferenceDevice(weights)
	if err != nil {
		return InterferenceRow{}, err
	}
	if err := core.PreconditionFrac(d, 1<<20, 0.6); err != nil {
		return InterferenceRow{}, err
	}
	space := int64(float64(d.LogicalBytes()) * 0.6)
	mix, err := interferenceStream(seed, space)
	if err != nil {
		return InterferenceRow{}, err
	}
	start := d.Engine().Now()
	if err := d.Drive(trace.Shift(mix, start)); err != nil {
		return InterferenceRow{}, err
	}
	elapsed := (d.Engine().Now() - start).Seconds()
	var row InterferenceRow
	for _, ts := range d.Metrics().Tenants {
		switch ts.Tenant {
		case 1:
			row.VictimP99ReadMs = ts.P99ReadMs
			row.VictimMeanReadMs = ts.MeanReadMs
		case 2:
			row.AggressorWriteMBps = stats.Bandwidth(ts.BytesWritten, elapsed)
		}
	}
	return row, nil
}

// InterferenceOptions sizes the sweep.
type InterferenceOptions struct {
	// Seed keys both tenants' workloads.
	Seed int64
	// Workers caps the pool (0 = runner default).
	Workers int
}

// Interference runs the fairness sweep, one spec per configuration.
func Interference(o InterferenceOptions) (InterferenceResult, error) {
	configs := []struct {
		name    string
		weights map[uint8]float64
	}{
		{"unfair", nil},
		{"fair 1:1", map[uint8]float64{1: 1, 2: 1}},
		{"fair 4:1", map[uint8]float64{1: 4, 2: 1}},
		{"fair 16:1", map[uint8]float64{1: 16, 2: 1}},
	}
	var res InterferenceResult
	specs := make([]runner.Spec[InterferenceRow], len(configs))
	for i, c := range configs {
		c := c
		specs[i] = runner.Spec[InterferenceRow]{
			Name: "interference/" + c.name,
			Seed: o.Seed,
			Run:  func() (InterferenceRow, error) { return interferenceRun(o.Seed, c.weights) },
		}
	}
	rows, err := runner.Run(specs, runner.Options{Workers: o.Workers})
	if err != nil {
		return res, err
	}
	for i, row := range rows {
		row.Config = configs[i].name
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
