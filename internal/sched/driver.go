package sched

import "ossd/internal/sim"

// Driver is the dispatch engine shared by the media models: one pump loop
// over an indexed Queue, with hooks for the work a substrate does around
// dispatch. The SSD hangs garbage collection on the hooks (mandatory
// cleaning before dispatch and, on a priority-aware device only,
// opportunistic cleaning after), the disk hangs its write-cache drain on
// the post hook, and MEMS uses the bare loop — so all substrates queue
// and dispatch through this one code path.
//
// Serve is called once per dispatched request with its payload and the
// current simulated time; it must start service (marking elements busy
// via Queue.SetBusy) and arrange for Pump to run again on completion.
// Pre and Post run before and after the dispatch pass of each round and
// report whether they made progress; the loop repeats until a full round
// makes none. A pump runs several rounds per operation, so the hooks
// must cost little when there is nothing to do: the SSD's visit only
// the elements whose cleaning inputs changed since they last needed no
// cleaning, not every element.
type Driver struct {
	eng   *sim.Engine
	q     *Queue
	serve func(data any, now sim.Time)
	pre   func(now sim.Time) bool
	post  func(now sim.Time) bool
}

// NewDriver builds a driver pumping q on eng, dispatching through serve.
func NewDriver(eng *sim.Engine, q *Queue, serve func(data any, now sim.Time)) *Driver {
	return &Driver{eng: eng, q: q, serve: serve}
}

// SetHooks installs the pre- and post-dispatch hooks (either may be nil).
func (d *Driver) SetHooks(pre, post func(now sim.Time) bool) {
	d.pre, d.post = pre, post
}

// pumpEvent is the engine callback form of Pump: arg is the *Driver.
// Keeping it a package-level function lets PumpAfter schedule through
// the engine's pooled event path without allocating a closure (or a
// method value) per completion.
func pumpEvent(a any) { a.(*Driver).Pump() }

// PumpAfter schedules a Pump d from now through the engine's pooled
// event path. Media models use it wherever device-initiated work (a
// cleaning pass, a cache drain) ends at a known future time; it is the
// allocation-free replacement for eng.After(d, drv.Pump).
func (d *Driver) PumpAfter(delay sim.Time) {
	d.eng.Call(delay, pumpEvent, d)
}

// Pump advances the device state machine: pre-dispatch work, then as many
// dispatches as the queue allows, then post-dispatch work, repeating
// until a whole round makes no progress. Call it on every arrival and on
// every completion.
func (d *Driver) Pump() {
	now := d.eng.Now()
	for {
		progress := false
		if d.pre != nil && d.pre(now) {
			progress = true
		}
		for {
			data, ok := d.q.Pop(now)
			if !ok {
				break
			}
			d.serve(data, now)
			progress = true
		}
		if d.post != nil && d.post(now) {
			progress = true
		}
		if !progress {
			return
		}
	}
}
