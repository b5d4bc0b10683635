package ssd

import (
	"ossd/internal/fault"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// faultState is the device's per-element fault clock: seq[e] counts the
// read/write dispatches that touched element e, and the plan's keyed
// hash over (seed, element, seq) decides every injection, so the
// injections depend only on each element's dispatch order.
type faultState struct {
	plan     *fault.Plan
	seq      []int64
	injected []int64
	retried  []int64
}

func newFaultState(plan *fault.Plan, elements int) *faultState {
	return &faultState{
		plan:     plan,
		seq:      make([]int64, elements),
		injected: make([]int64, elements),
		retried:  make([]int64, elements),
	}
}

// injectFaults advances the fault clocks of the elements a dispatched
// request touches and applies the plan: any dead element fails the whole
// request with no media work; a transient fault charges the element an
// in-device retry. Reports whether the request failed.
func (d *Device) injectFaults(req *Request, durs []sim.Time) bool {
	f := d.flt
	elems := d.elemsFor(req.Op)
	failed := false
	for _, e := range elems {
		if f.plan.DeadAt(e, f.seq[e]) {
			failed = true
			break
		}
	}
	write := req.Op.Kind == trace.Write
	for _, e := range elems {
		seq := f.seq[e]
		f.seq[e]++
		if failed {
			if f.plan.DeadAt(e, seq) {
				f.injected[e]++
			}
			continue
		}
		if f.plan.TransientAt(e, seq, write) {
			f.injected[e]++
			f.retried[e]++
			durs[e] += f.plan.RetryCost()
		}
	}
	if failed {
		req.Err = fault.ErrElementDead
	}
	return failed
}

// faultDead reports whether element e is past its death point; the
// cleaning hooks skip dead elements (their media is gone).
func (d *Device) faultDead(e int) bool {
	return d.flt != nil && d.flt.plan.DeadAt(e, d.flt.seq[e])
}
