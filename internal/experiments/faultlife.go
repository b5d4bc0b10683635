package experiments

import (
	"fmt"

	"ossd/internal/core"
	"ossd/internal/fault"
	"ossd/internal/flash"
	"ossd/internal/runner"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// FaultLife is an extension experiment for the fault subsystem: an
// accelerated-lifetime sweep. Each configuration attaches a fault plan
// with a progressively lower wear ceiling and drives the same skewed
// overwrite workload in segments, checkpointing the device between
// segments. Low ceilings retire blocks as cleaning crosses them; every
// retirement shrinks the spare pool, which intensifies cleaning, which
// retires more blocks — the wear-out cliff, visible as a monotonically
// growing retired-block count and degrading write tails, while the
// no-ceiling baseline stays flat.

// FaultLifePoint is one checkpoint of one configuration's run.
type FaultLifePoint struct {
	Ops        int64   // host writes driven so far
	Retired    int64   // blocks retired so far
	Remapped   int64   // pages relocated off retired blocks so far
	Errors     int64   // failed host ops so far (the cliff, once spare is gone)
	P99WriteMs float64 // write tail at this checkpoint
}

// FaultLifeResult is the sweep's outcome: per configuration, one point
// per checkpoint.
type FaultLifeResult struct {
	Configs []string
	Points  [][]FaultLifePoint
}

// ID implements Result.
func (FaultLifeResult) ID() string { return "faultlife" }

func (r FaultLifeResult) String() string {
	t := stats.NewTable("Extension: accelerated lifetime under wear ceilings (fault plans)",
		"Config", "Ops", "Retired", "Remapped", "Errors", "P99Write(ms)")
	for i := range r.Configs {
		for _, p := range r.Points[i] {
			t.AddRow(r.Configs[i], p.Ops, p.Retired, p.Remapped, p.Errors, p.P99WriteMs)
		}
	}
	t.AddNote("each retirement shrinks the spare pool and intensifies cleaning: the")
	t.AddNote("wear-out cliff accelerates as the ceiling drops; no ceiling stays flat.")
	return t.String()
}

// faultLifeDevice builds the sweep's device: small, interleaved, and
// SWTF-scheduled, with the configuration's wear ceiling carried on a
// fault plan (low-rate transient faults included, so the plan exercises
// both injection paths at once).
func faultLifeDevice(seed int64, ceiling int) (core.Device, error) {
	cfg := ssd.Config{
		Elements:      4,
		Geom:          flash.Geometry{PageSize: 4096, PagesPerBlock: 32, BlocksPerPackage: 64},
		Overprovision: 0.25,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  5 * sim.Microsecond,
		GCLow:         0.06, GCCritical: 0.03,
	}
	plan := &fault.Plan{
		Seed:        seed,
		Transient:   &fault.Transient{Rate: 0.002, Burst: 4, RetryUs: 400},
		WearCeiling: ceiling,
		RemapCostUs: 300,
	}
	return core.Open("ssd", core.WithSSD(cfg), core.WithFault(plan))
}

// faultLifeRun preconditions the device, then drives segments splits of
// a skewed single-page overwrite workload, checkpointing after each.
// Segment boundaries are Drive-call boundaries — the engine is drained
// there, so each checkpoint sees every completion of its segment.
func faultLifeRun(d core.Device, seed int64, segments, opsPerSegment int) ([]FaultLifePoint, error) {
	if err := core.PreconditionFrac(d, 1<<20, 0.8); err != nil {
		return nil, err
	}
	space := int64(float64(d.LogicalBytes()) * 0.8)
	hot := space / 10
	rng := sim.NewRNG(seed)
	points := make([]FaultLifePoint, 0, segments)
	var driven int64
	for s := 0; s < segments; s++ {
		ops := make([]trace.Op, opsPerSegment)
		for i := range ops {
			region := hot
			if rng.Bool(0.1) {
				region = space
			}
			ops[i] = trace.Op{Kind: trace.Write, Offset: rng.Int63n(region/4096) * 4096, Size: 4096}
		}
		if err := d.Drive(trace.FromSlice(ops)); err != nil {
			return nil, err
		}
		driven += int64(opsPerSegment)
		m := d.Metrics()
		points = append(points, FaultLifePoint{
			Ops:        driven,
			Retired:    m.RetiredBlocks,
			Remapped:   m.RemappedPages,
			Errors:     m.Errors,
			P99WriteMs: m.P99WriteMs,
		})
	}
	return points, nil
}

// FaultLifeOptions sizes the sweep.
type FaultLifeOptions struct {
	// Seed keys the workload and the fault plans.
	Seed int64
	// Segments is the checkpoint count (default 6).
	Segments int
	// OpsPerSegment is the host writes per segment (default 4000).
	OpsPerSegment int
	// Workers caps the pool (0 = runner default).
	Workers int
}

// FaultLife runs the accelerated-lifetime sweep, one spec per ceiling.
func FaultLife(o FaultLifeOptions) (FaultLifeResult, error) {
	if o.Segments <= 0 {
		o.Segments = 6
	}
	if o.OpsPerSegment <= 0 {
		o.OpsPerSegment = 4000
	}
	ceilings := []int{0, 6, 4, 2}
	var res FaultLifeResult
	specs := make([]runner.Spec[[]FaultLifePoint], len(ceilings))
	for i, c := range ceilings {
		c := c
		name := fmt.Sprintf("ceiling %d", c)
		if c == 0 {
			name = "no ceiling"
		}
		res.Configs = append(res.Configs, name)
		specs[i] = runner.Spec[[]FaultLifePoint]{
			Name: "faultlife/" + name,
			Seed: o.Seed,
			Run: func() ([]FaultLifePoint, error) {
				d, err := faultLifeDevice(o.Seed, c)
				if err != nil {
					return nil, err
				}
				return faultLifeRun(d, o.Seed, o.Segments, o.OpsPerSegment)
			},
		}
	}
	pts, err := runner.Run(specs, runner.Options{Workers: o.Workers})
	if err != nil {
		return res, err
	}
	res.Points = pts
	return res, nil
}
