package ssd

import (
	"fmt"
	"testing"

	"ossd/internal/fault"
	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// candidateWatch checks the candidate-set invariant on one device: at the
// end of every dispatch round, the last of which ends each Pump, an idle,
// live element whose candidate bit is clear needs neither mandatory nor
// opportunistic cleaning. A missing mark would silently postpone a
// cleaning pass that a scan of every element would start.
type candidateWatch struct {
	d      *Device
	rounds int
	err    error
}

// watchCandidates installs the check by wrapping d's post-dispatch hook;
// the wrapper adds no progress of its own, so dispatch is unchanged.
func watchCandidates(d *Device) *candidateWatch {
	w := &candidateWatch{d: d}
	post := d.postHook()
	d.drv.SetHooks(d.mandatoryClean, func(now sim.Time) bool {
		progress := post != nil && post(now)
		w.check(now)
		return progress
	})
	return w
}

func (w *candidateWatch) check(now sim.Time) {
	w.rounds++
	if w.err != nil {
		return
	}
	d := w.d
	for e := range d.elems {
		if d.cand[e>>6]&(1<<(e&63)) != 0 || d.q.Busy(e) > now || d.faultDead(e) {
			continue
		}
		if d.mustClean(e) || d.wantClean(e) {
			w.err = fmt.Errorf("t=%v round %d: element %d (free %.4f) needs cleaning but is no candidate",
				now, w.rounds, e, d.elems[e].FreeFraction())
			return
		}
	}
}

// fill writes the first frac of the device sequentially in 64 KiB ops.
func fill(t *testing.T, d *Device, frac float64) {
	t.Helper()
	space := int64(float64(d.LogicalBytes())*frac) / (1 << 16) * (1 << 16)
	var off int64
	err := closedLoop(d, 1, func(int) (trace.Op, bool) {
		if off >= space {
			return trace.Op{}, false
		}
		op := trace.Op{Kind: trace.Write, Offset: off, Size: 1 << 16}
		off += 1 << 16
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// candidateMix draws n random page-aligned ops of one to four pages:
// frees with probability free, then writes with probability write among
// the rest, reads otherwise; half carry the priority flag when pri is set.
func candidateMix(seed int64, n int, logical int64, free, write float64, pri bool) []trace.Op {
	rng := sim.NewRNG(seed)
	pages := logical / 4096
	ops := make([]trace.Op, n)
	for i := range ops {
		size := (1 + rng.Int63n(4)) * 4096
		op := trace.Op{Kind: trace.Read, Offset: rng.Int63n(pages-4) * 4096, Size: size}
		switch {
		case rng.Bool(free):
			op.Kind = trace.Free
		case rng.Bool(write):
			op.Kind = trace.Write
		}
		op.Priority = pri && rng.Bool(0.5)
		ops[i] = op
	}
	return ops
}

// TestCandidateSetInvariant drives every cleaning mode through a closed
// loop with the invariant checked after every dispatch round. Each mode
// must also clean in the background, or it would test nothing.
func TestCandidateSetInvariant(t *testing.T) {
	base := testConfig()
	base.Scheduler = sched.SWTF
	base.CtrlOverhead = 10 * sim.Microsecond

	priority := base
	priority.PriorityAware = true

	buffered := base
	buffered.WriteBufferBytes = 64 << 10

	// Informed frees on a device filled past its low watermark with no
	// garbage: every element is below the watermark with nothing to clean
	// until a free (charged no media time) hands it a victim.
	informed := base
	informed.Informed = true
	informed.Overprovision = 0.10
	informed.GCLow = 0.2

	faulty := gangConfig()
	faulty.Fault = &fault.Plan{
		Seed:        99,
		Transient:   &fault.Transient{Rate: 0.01, Burst: 4, RetryUs: 400},
		Deaths:      []fault.Death{{Element: 5, AfterOps: 300}},
		WearCeiling: 2,
		RemapCostUs: 300,
	}

	wornOut := base
	wornOut.EraseBudget = 3

	het := hetConfig()
	het.Scheduler = sched.SWTF

	stripe := stripeConfig()

	block := base
	block.Scheme = ftl.BlockMapped
	hybrid := base
	hybrid.Scheme = ftl.HybridLog

	cases := []struct {
		name        string
		cfg         Config
		fill        float64
		free, write float64
		pri         bool
		noClean     bool // the scheme never cleans in the background
	}{
		{name: "base", cfg: base, fill: 0.9, write: 0.5},
		{name: "priority-aware", cfg: priority, fill: 0.9, write: 0.5, pri: true},
		{name: "write-buffer", cfg: buffered, fill: 0.9, write: 0.7, pri: true},
		{name: "informed-frees", cfg: informed, fill: 1, free: 0.5, write: 0.3},
		{name: "faults", cfg: faulty, fill: 0.9, free: 0.05, write: 0.6},
		{name: "wear-out", cfg: wornOut, fill: 0.9, write: 0.9},
		{name: "mlc-het", cfg: het, fill: 0.9, write: 0.5},
		{name: "full-stripe", cfg: stripe, fill: 0.9, write: 0.5},
		{name: "block-ftl", cfg: block, fill: 0.9, free: 0.1, write: 0.5, noClean: true},
		{name: "hybrid-ftl", cfg: hybrid, fill: 0.9, free: 0.1, write: 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(sim.NewEngine(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := watchCandidates(d)
			fill(t, d, tc.fill)
			ops := candidateMix(3, 6000, d.LogicalBytes(), tc.free, tc.write, tc.pri)
			// Wear-out and element death fail requests; those errors are
			// reported per request, never as submission errors.
			if err := closedLoop(d, 4, func(i int) (trace.Op, bool) {
				if i >= len(ops) {
					return trace.Op{}, false
				}
				return ops[i], true
			}); err != nil {
				t.Fatal(err)
			}
			if w.err != nil {
				t.Fatal(w.err)
			}
			if cleans := d.Metrics().BackgroundCleans; cleans == 0 && !tc.noClean {
				t.Fatalf("no background cleaning in %d rounds", w.rounds)
			}
		})
	}
}
