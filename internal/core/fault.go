package core

import (
	"fmt"

	"ossd/internal/fault"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// FaultDevice is the generic per-op fault injector: it wraps any Device
// whose medium has no native fault hooks (disk, MEMS, RAID) and applies
// a fault.Plan at the submission boundary. The wrapped device is treated
// as one element — element 0 of the plan — with a sequence number that
// advances once per read or write submitted, so injections are a pure
// function of (plan seed, op sequence) and replay identically for a
// given workload regardless of wall clock or completion interleaving.
// Flash devices do not use this wrapper: the SSD injects per-element
// faults inside its dispatch path instead.
type FaultDevice struct {
	inner Device
	plan  *fault.Plan
	driveConfig

	seq      int64 // read/write ops submitted (the fault clock)
	injected int64
	retried  int64
	deadOps  int64
	// Bytes double-counted by retry resubmissions, subtracted from the
	// snapshot so host byte counters keep their meaning.
	retryBytesRead    int64
	retryBytesWritten int64
	// The wrapper keeps its own response histograms: a retried op's true
	// response spans both services plus the pause, which the inner
	// device's histograms record as two separate ordinary ops.
	readResp  stats.Histogram
	writeResp stats.Histogram
	// tenants is the wrapper-eye per-tenant view, kept for the same
	// reason: the inner device's per-tenant accumulators double-count a
	// retried op (two services, two records) and never see dead ops. The
	// wrapper records each host op exactly once, so its set replaces the
	// inner one in the snapshot and per-tenant entries always sum to the
	// reconciled host totals.
	tenants stats.TenantSet
}

// record logs one host-visible completion (a failed op completes with
// zero response, like an errored flash request). serviced is false for
// dead ops, which moved no media bytes: the op still counts for its
// tenant, but contributes zero bytes, matching the top-level counters.
func (f *FaultDevice) record(op trace.Op, resp sim.Time, serviced bool) {
	ms := resp.Millis()
	if op.Kind == trace.Read {
		f.readResp.Add(ms)
	} else {
		f.writeResp.Add(ms)
	}
	size := op.Size
	if !serviced {
		size = 0
	}
	f.tenants.Record(op.Tenant, op.Kind != trace.Read, size, ms)
}

// WrapFault applies a fault plan to an existing device. The plan must
// already be validated; a nil or inert plan returns the device unwrapped.
func WrapFault(d Device, plan *fault.Plan) Device {
	if !plan.Injects() {
		return d
	}
	return &FaultDevice{inner: d, plan: plan}
}

// Submit implements Device. Frees pass through untouched (they are
// mapping metadata, matching the flash path). A dead device fails the
// op immediately — no media time — while a transient fault services the
// op, waits out the retry cost, and services it again, so the retry is
// visible as both latency and extra media traffic. An op the device
// would reject is rejected before it draws on the fault clock, so it
// neither consumes a sequence number nor touches a counter.
func (f *FaultDevice) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	if op.Kind == trace.Free {
		return f.inner.Submit(op, onDone)
	}
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > f.inner.LogicalBytes() {
		return fmt.Errorf("core: request [%d, +%d) beyond capacity %d", op.Offset, op.Size, f.inner.LogicalBytes())
	}
	seq := f.seq
	f.seq++
	if f.plan.DeadAt(0, seq) {
		f.injected++
		f.deadOps++
		// Complete as an event, not synchronously: callers (closedLoop,
		// driveBounded) resubmit from their completion callbacks.
		f.inner.Engine().At(f.inner.Engine().Now(), func() {
			f.record(op, 0, false)
			if onDone != nil {
				onDone(0, fault.ErrElementDead)
			}
		})
		return nil
	}
	if f.plan.TransientAt(0, seq, op.Kind == trace.Write) {
		f.injected++
		f.retried++
		switch op.Kind {
		case trace.Read:
			f.retryBytesRead += op.Size
		case trace.Write:
			f.retryBytesWritten += op.Size
		}
		eng := f.inner.Engine()
		start := eng.Now()
		return f.inner.Submit(op, func(sim.Time, error) {
			// First service hit the fault: pause for the retry window,
			// then reissue. The caller sees one completion spanning both
			// services plus the pause.
			eng.At(eng.Now()+f.plan.RetryCost(), func() {
				err := f.inner.Submit(op, func(sim.Time, error) {
					f.record(op, eng.Now()-start, true)
					if onDone != nil {
						onDone(eng.Now()-start, nil)
					}
				})
				if err != nil && onDone != nil {
					onDone(eng.Now()-start, err)
				}
			})
		})
	}
	return f.inner.Submit(op, func(resp sim.Time, err error) {
		f.record(op, resp, true)
		if onDone != nil {
			onDone(resp, err)
		}
	})
}

// Drive implements Device.
func (f *FaultDevice) Drive(st trace.Stream) error { return drive(f, st, f.MaxPending) }

// ClosedLoop implements Device.
func (f *FaultDevice) ClosedLoop(depth int, gen func(int) (trace.Op, bool)) error {
	return closedLoop(f, depth, gen)
}

// Engine implements Device.
func (f *FaultDevice) Engine() *sim.Engine { return f.inner.Engine() }

// LogicalBytes implements Device.
func (f *FaultDevice) LogicalBytes() int64 { return f.inner.LogicalBytes() }

// QueueDepth implements Device.
func (f *FaultDevice) QueueDepth() int { return f.inner.QueueDepth() }

// Metrics implements Device: the inner snapshot plus the injector's
// counters. Dead ops completed as errors without reaching the medium, so
// they are added to Completed and Errors here (matching the flash
// semantics: an errored request still counts as completed). Retries
// doubled the inner device's per-op accounting; the duplicate completion
// and bytes are subtracted so host-facing counters stay host-facing.
func (f *FaultDevice) Metrics() Snapshot {
	s := f.inner.Metrics()
	s.Completed += f.deadOps - f.retried
	s.Errors += f.deadOps
	s.BytesRead -= f.retryBytesRead
	s.BytesWritten -= f.retryBytesWritten
	s.FaultsInjected = f.injected
	s.FaultRetries = f.retried
	// Latency comes from the wrapper's histograms, which see each op's
	// true host-visible response (retry spans included). The per-tenant
	// view is replaced wholesale for the same reason: the inner set
	// counted every retry twice and never saw dead ops, while the
	// wrapper's set records each host op exactly once, so per-tenant
	// entries sum to the reconciled totals above.
	s.Tenants = tenantSnapshots(f.tenants)
	s.fillLatency(f.readResp, f.writeResp)
	return s
}

// ReplayRecovery models the post-power-loss mount: a sequential
// closed-loop read pass over the first frac of the address space — the
// log scan that rebuilds mapping state after an unclean shutdown. frac
// <= 0 defaults to 0.25; frac is clamped to 1. The reads land on the
// device's own metrics, so a truncated-and-recovered run is directly
// comparable to an uninterrupted one.
func ReplayRecovery(d Device, frac float64) error {
	if frac <= 0 {
		frac = 0.25
	}
	if frac > 1 {
		frac = 1
	}
	space := int64(float64(d.LogicalBytes()) * frac)
	if space <= 0 {
		return fmt.Errorf("core: recovery scan window empty")
	}
	const chunk = int64(1 << 20)
	var off int64
	return d.ClosedLoop(1, func(int) (trace.Op, bool) {
		if off >= space {
			return trace.Op{}, false
		}
		size := chunk
		if off+size > space {
			size = space - off
		}
		op := trace.Op{Kind: trace.Read, Offset: off, Size: size}
		off += size
		return op, true
	})
}

// Compile-time interface check.
var _ Device = (*FaultDevice)(nil)
