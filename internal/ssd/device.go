package ssd

import (
	"fmt"
	"math/bits"

	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Request is one I/O in flight through the device, with its lifecycle
// timestamps filled in as it progresses.
//
// Lifetime contract: requests are pooled. A *Request handed to an onDone
// callback is valid only until that callback returns; afterwards the
// device may recycle it for a later submission. Callers that need any
// field past completion must copy it inside the callback.
type Request struct {
	// Op is the originating trace operation.
	Op trace.Op
	// Arrive, Start, Done are the queue-entry, dispatch, and completion
	// times on the simulated clock.
	Arrive, Start, Done sim.Time
	// Err records a device error (wear-out, capacity); nil on success.
	Err error

	// internal marks buffer-drain requests: they do the media work for an
	// already-acknowledged buffered write and stay out of host metrics.
	internal bool
	onDone   func(*Request)
	// host is a SubmitHost caller's completion callback; onDone is then
	// hostDone, a package-level adapter, so completing through host
	// builds no closure per request.
	host func(resp sim.Time, err error)
	// dev and remaining carry the completion state through the engine's
	// pooled events: remaining counts the busy elements (plus the host
	// link) still owed to this request, and dev lets the package-level
	// event callbacks reach the device without a closure per event.
	dev       *Device
	remaining int
	// nextFree links the device freelist.
	nextFree *Request
}

// Response returns the request's response time (completion - arrival).
func (r *Request) Response() sim.Time { return r.Done - r.Arrive }

// Metrics accumulates device-level measurements.
type Metrics struct {
	// Requests counts arrivals; Completed counts finished requests.
	Requests, Completed int64
	// ReadResp and WriteResp are response-time histograms in
	// milliseconds, by operation type.
	ReadResp, WriteResp stats.Histogram
	// PriResp and BgResp are response-time histograms in milliseconds for
	// priority (foreground) and normal (background) requests (§3.6).
	PriResp, BgResp stats.Histogram
	// BytesRead and BytesWritten count host data moved.
	BytesRead, BytesWritten int64
	// Frees counts free (deallocation) notifications processed.
	Frees int64
	// Errors counts failed requests.
	Errors int64
	// BackgroundCleans counts cleaning passes initiated by the device
	// (watermark-driven), as opposed to the FTL's internal safety valve.
	BackgroundCleans int64
	// BufferedWrites counts writes absorbed by the write buffer;
	// BufferBypass counts writes that found it full.
	BufferedWrites, BufferBypass int64
	// FaultsInjected counts faults injected by the device's fault plan;
	// FaultRetries counts those recovered by an in-device retry.
	// RetiredBlocks and RemappedPages aggregate the FTLs' wear-ceiling
	// retirement activity. All four are computed fresh by Metrics().
	FaultsInjected, FaultRetries int64
	RetiredBlocks, RemappedPages int64
	// Tenants breaks completed host transfers down per tenant class.
	Tenants stats.TenantSet
}

// GCStats aggregates FTL cleaning counters across the gang.
type GCStats struct {
	HostPageReads, HostPageWrites int64
	PagesMoved                    int64
	Cleans, GCErases, Migrations  int64
	CleanTime                     sim.Time
	FreesSeen, FreesApplied       int64
	RetiredBlocks, RemappedPages  int64
}

// Device is the simulated SSD.
type Device struct {
	cfg   Config
	eng   *sim.Engine
	elems []ftl.Backend

	// Derived layout parameters.
	chunkBytes    int64 // FullStripe: contiguous bytes per element per stripe
	pagesPerChunk int
	logicalBytes  int64

	// q indexes the pending requests and owns the per-element busy
	// horizons; drv runs the shared dispatch loop with the cleaning
	// passes as its pre/post hooks.
	q        *sched.Queue
	drv      *sched.Driver
	linkBusy sim.Time // host-interface link occupancy (InterfaceMBps)
	// touched/elemScratch are reused by elemsFor, and durScratch by
	// exec, so neither enqueueing nor dispatching allocates per request.
	touched     []bool
	elemScratch []int
	durScratch  []sim.Time
	// outstandingPri counts priority requests queued or in service; the
	// priority-aware cleaner consults it (§3.6).
	outstandingPri int
	// bufOccupancy tracks undrained bytes in the write buffer.
	bufOccupancy int64

	// freeReq heads the request freelist; see the Request lifetime
	// contract. Steady-state submission reuses completed requests, so the
	// host path allocates nothing.
	freeReq *Request

	// cand is the cleaning candidate set, one bit per element. A bit is
	// set wherever the element's cleaning inputs (its FTL state and fault
	// clock) may have changed since the cleaning hooks last found it
	// needing no cleaning, and the hooks visit only set bits. serve sets
	// the bits of the elements a request touched, and a new device starts
	// with every element set.
	cand []uint64

	// flt, when non-nil, injects the config's fault plan at dispatch.
	flt *faultState

	met Metrics
}

// New builds a device on the given engine.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:        cfg,
		eng:        eng,
		touched:    make([]bool, cfg.Elements),
		durScratch: make([]sim.Time, cfg.Elements),
		cand:       make([]uint64, (cfg.Elements+63)/64),
	}
	for i := 0; i < cfg.Elements; i++ {
		el, err := ftl.NewBackend(cfg.Scheme, cfg.ftlConfig(i))
		if err != nil {
			return nil, err
		}
		d.elems = append(d.elems, el)
		d.markCand(i)
	}
	if cfg.Fault.Injects() {
		d.flt = newFaultState(cfg.Fault, cfg.Elements)
	}
	d.q = sched.NewQueue(cfg.Scheduler, cfg.Elements)
	// Map iteration order is irrelevant here: the queue keeps its tenant
	// ring sorted by ID, so any insertion order yields the same ring.
	for t, w := range cfg.TenantWeights {
		d.q.SetTenantWeight(t, w)
	}
	d.drv = sched.NewDriver(eng, d.q, d.serve)
	d.drv.SetHooks(d.mandatoryClean, d.postHook())
	perElemPages := d.elems[0].LogicalPages()
	pageSize := int64(cfg.Geom.PageSize)
	switch cfg.Layout {
	case FullStripe:
		d.chunkBytes = cfg.StripeBytes / int64(cfg.Elements)
		d.pagesPerChunk = int(d.chunkBytes / pageSize)
		stripes := perElemPages / d.pagesPerChunk
		d.logicalBytes = int64(stripes) * cfg.StripeBytes
	case Interleaved:
		d.logicalBytes = int64(perElemPages) * pageSize * int64(cfg.Elements)
	}
	if d.logicalBytes <= 0 {
		return nil, fmt.Errorf("ssd: configuration exports no capacity")
	}
	return d, nil
}

// Engine returns the simulation engine driving the device.
func (d *Device) Engine() *sim.Engine { return d.eng }

// LogicalBytes reports the exported capacity.
func (d *Device) LogicalBytes() int64 { return d.logicalBytes }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Metrics returns a snapshot of the accumulated metrics. The fault and
// retirement counters are computed fresh from the fault state and the
// per-element FTL stats.
func (d *Device) Metrics() Metrics {
	m := d.met
	if d.flt != nil {
		for e := range d.flt.seq {
			m.FaultsInjected += d.flt.injected[e]
			m.FaultRetries += d.flt.retried[e]
		}
	}
	for _, el := range d.elems {
		s := el.Stats()
		m.RetiredBlocks += s.RetiredBlocks
		m.RemappedPages += s.RemappedPages
	}
	return m
}

// QueueDepth reports the number of requests waiting for dispatch.
func (d *Device) QueueDepth() int { return d.q.Len() }

// RegionBoundary reports the byte offset where the MLC region begins on
// a heterogeneous device, or 0 when the media is homogeneous. Bytes in
// [0, boundary) live on SLC elements, [boundary, LogicalBytes()) on MLC.
func (d *Device) RegionBoundary() int64 {
	if d.cfg.MLCElements == 0 {
		return 0
	}
	slcElems := d.cfg.Elements - d.cfg.MLCElements
	perElem := int64(d.elems[0].LogicalPages()) * int64(d.cfg.Geom.PageSize)
	return perElem * int64(slcElems)
}

// Elements exposes the per-element FTLs for inspection.
func (d *Device) Elements() []ftl.Backend { return d.elems }

// GCStats aggregates cleaning statistics across the gang.
func (d *Device) GCStats() GCStats {
	var g GCStats
	for _, el := range d.elems {
		s := el.Stats()
		g.HostPageReads += s.HostReads
		g.HostPageWrites += s.HostWrites
		g.PagesMoved += s.PagesMoved
		g.Cleans += s.Cleans
		g.GCErases += s.GCErases
		g.Migrations += s.Migrations
		g.CleanTime += s.CleanTime
		g.FreesSeen += s.FreesSeen
		g.FreesApplied += s.FreesApplied
		g.RetiredBlocks += s.RetiredBlocks
		g.RemappedPages += s.RemappedPages
	}
	return g
}

// WriteAmplification reports media page writes (stripe rewrites plus GC
// relocation) divided by the pages the host actually sent: the §3.4
// amplification factor.
func (d *Device) WriteAmplification() float64 {
	if d.met.BytesWritten == 0 {
		return 0
	}
	g := d.GCStats()
	hostPages := float64(d.met.BytesWritten) / float64(d.cfg.Geom.PageSize)
	return float64(g.HostPageWrites+g.PagesMoved) / hostPages
}

// takeReq pops a pooled request (or allocates the pool's next one) and
// resets it.
func (d *Device) takeReq() *Request {
	if r := d.freeReq; r != nil {
		d.freeReq = r.nextFree
		*r = Request{}
		return r
	}
	return &Request{}
}

// putReq recycles a completed request. Only the callback reference is
// dropped eagerly (for the collector); the remaining fields are cleared
// on take, which keeps stale pointers readable for debugging.
func (d *Device) putReq(r *Request) {
	r.onDone, r.host = nil, nil
	r.nextFree = d.freeReq
	d.freeReq = r
}

// Submit enqueues an operation at the current simulated time. onDone, if
// non-nil, runs at completion. Frees are metadata-only (zero service
// time) but still flow through the dispatch queue so they order behind
// earlier writes to the same elements.
//
// The *Request passed to onDone is pooled: it must not be retained after
// the callback returns.
func (d *Device) Submit(op trace.Op, onDone func(*Request)) error {
	return d.submit(op, onDone, nil)
}

// SubmitHost is Submit for a caller that needs only the response time and
// error at completion, as a host interface does. onDone, if non-nil, is
// carried on the pooled request itself, so a shared callback submits
// without allocating.
func (d *Device) SubmitHost(op trace.Op, onDone func(resp sim.Time, err error)) error {
	return d.submit(op, nil, onDone)
}

// hostDone completes a SubmitHost request.
func hostDone(r *Request) { r.host(r.Response(), r.Err) }

// submit enqueues op with at most one of the two completion callbacks
// and pumps the dispatch loop.
func (d *Device) submit(op trace.Op, onDone func(*Request), host func(sim.Time, error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > d.logicalBytes {
		return fmt.Errorf("ssd: request [%d, +%d) beyond capacity %d", op.Offset, op.Size, d.logicalBytes)
	}
	now := d.eng.Now()
	req := d.takeReq()
	req.Op = op
	req.Arrive = now
	req.onDone = onDone
	if host != nil {
		req.onDone, req.host = hostDone, host
	}
	req.dev = d
	d.met.Requests++
	// Write-back buffer: absorb the write at RAM speed and let an
	// internal request do the media work. A full buffer bypasses.
	if d.cfg.WriteBufferBytes > 0 && op.Kind == trace.Write {
		if d.bufOccupancy+op.Size <= d.cfg.WriteBufferBytes {
			d.bufOccupancy += op.Size
			d.met.BufferedWrites++
			if op.Priority {
				d.outstandingPri++ // complete() balances this
			}
			// The drain request does the media work without priority (the
			// host has already been acknowledged).
			drain := d.takeReq()
			drain.Op = op
			drain.Op.Priority = false
			drain.Arrive = now
			drain.internal = true
			drain.dev = d
			d.enqueue(drain)
			// The host sees the buffer-insert latency only.
			req.Start = req.Arrive
			d.eng.Call(d.cfg.CtrlOverhead, completeEvent, req)
			d.drv.Pump()
			return nil
		}
		d.met.BufferBypass++
	}
	d.enqueue(req)
	d.drv.Pump()
	return nil
}

// enqueue adds a request to the dispatch queue, carrying the op's tenant
// class and byte cost for the fair-share layer (ignored — and the push
// byte-identical to the legacy one — unless tenant weights are set).
func (d *Device) enqueue(req *Request) {
	if req.Op.Priority {
		d.outstandingPri++
	}
	d.q.PushT(d.elemsFor(req.Op), req, req.Op.Tenant, req.Op.Size)
}

// ---- internal machinery ----
//
// The dispatch loop itself lives in sched.Driver (shared with the other
// media models); the device contributes its cleaning passes as the
// driver's hooks and its media execution as serve.

// mandatoryClean is the driver's pre-dispatch hook: below the critical
// watermark always; below the low watermark too when the device is
// priority-agnostic ("cleaning starts at the low threshold irrespective
// of the outstanding requests"). It visits only the candidate elements,
// in ascending order as a scan of the whole gang would, and drops a
// candidate once it needs neither mandatory nor opportunistic cleaning.
func (d *Device) mandatoryClean(now sim.Time) bool {
	return d.cleanCandidates(now, false)
}

// postHook returns the driver's post-dispatch hook: opportunisticClean on
// a priority-aware device with a low watermark, and nil otherwise, since
// no other device ever cleans opportunistically.
func (d *Device) postHook() func(sim.Time) bool {
	if d.cfg.PriorityAware && d.cfg.GCLow > 0 {
		return d.opportunisticClean
	}
	return nil
}

// opportunisticClean is the driver's post-dispatch hook on a
// priority-aware device: clean the candidate elements at the low
// watermark when no priority request is outstanding.
func (d *Device) opportunisticClean(now sim.Time) bool {
	if d.outstandingPri != 0 {
		return false
	}
	return d.cleanCandidates(now, true)
}

// cleanCandidates starts a cleaning pass on every idle, live candidate
// element that needs one (wantClean when opportunistic, else mustClean)
// and reports whether it started any. An element that needs no cleaning
// of either kind leaves the candidate set: every skipped element would
// have tested false, so each cleaning decision is the one a scan of the
// whole gang would make.
func (d *Device) cleanCandidates(now sim.Time, opportunistic bool) bool {
	progress := false
	for w, word := range d.cand {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			e := w<<6 | b
			if d.q.Busy(e) > now || d.faultDead(e) {
				continue
			}
			clean := d.mustClean(e)
			if opportunistic {
				clean = d.wantClean(e)
			}
			if clean && d.startClean(e) {
				progress = true
			} else if !d.belowLow(e) {
				d.cand[w] &^= 1 << b
			}
		}
	}
	return progress
}

// markCand makes element e a cleaning candidate.
func (d *Device) markCand(e int) { d.cand[e>>6] |= 1 << (e & 63) }

// mustClean tests the watermark, a counter read on the page-mapped FTL,
// before the CanClean scan of the block table, which most elements, far
// from any watermark, never reach.
func (d *Device) mustClean(e int) bool {
	el := d.elems[e]
	f := el.FreeFraction()
	if d.cfg.GCCritical > 0 && f < d.cfg.GCCritical ||
		!d.cfg.PriorityAware && d.cfg.GCLow > 0 && f < d.cfg.GCLow {
		return el.CanClean()
	}
	return false
}

func (d *Device) wantClean(e int) bool {
	if !d.cfg.PriorityAware || d.cfg.GCLow == 0 || d.outstandingPri != 0 {
		return false
	}
	el := d.elems[e]
	return el.FreeFraction() < d.cfg.GCLow && el.CanClean()
}

// belowLow reports whether element e could need cleaning of either kind,
// whatever the outstanding priority count: the critical watermark never
// exceeds the low one (Config.Validate), so both kinds need the element
// below the low watermark with something to clean.
func (d *Device) belowLow(e int) bool {
	el := d.elems[e]
	return el.FreeFraction() < d.cfg.GCLow && el.CanClean()
}

func (d *Device) startClean(e int) bool {
	dur, err := d.elems[e].CleanOnce()
	if err != nil {
		return false
	}
	d.met.BackgroundCleans++
	d.q.SetBusy(e, d.eng.Now()+dur)
	d.drv.PumpAfter(dur)
	return true
}

// partDoneEvent is the pooled completion callback for one part (an
// element's media work or the host link) of a request: the last part to
// finish completes the request, and every finish frees capacity, so the
// dispatch loop pumps either way.
func partDoneEvent(a any) {
	req := a.(*Request)
	d := req.dev
	req.remaining--
	if req.remaining == 0 {
		d.complete(req)
	}
	d.drv.Pump()
}

// completeEvent is the pooled callback for completions with no media
// part, e.g. the host-visible acknowledgement of a buffered write.
func completeEvent(a any) {
	req := a.(*Request)
	req.dev.complete(req)
}

// serve starts media service for a dispatched request: it executes the
// request against the FTLs, marks the touched elements busy, models the
// host link, and schedules the completion events — all through the
// engine's pooled event path, so dispatching allocates nothing.
func (d *Device) serve(data any, now sim.Time) {
	req := data.(*Request)
	req.Start = now
	durs := d.exec(req)
	req.remaining = 0
	for e, dur := range durs {
		if dur == 0 {
			continue
		}
		req.remaining++
		d.q.SetBusy(e, now+dur+d.cfg.CtrlOverhead)
		d.markCand(e)
	}
	// A free, or a request that failed (a dead element, a worn-out
	// block), may change FTL or fault state on elements it charged no
	// time.
	if req.Op.Kind == trace.Free || req.Err != nil {
		for _, e := range d.elemsFor(req.Op) {
			d.markCand(e)
		}
	}
	// The host link moves the request's data serially (but overlapped
	// with flash work via DMA): it is one more completion constraint.
	if d.cfg.InterfaceMBps > 0 {
		linkTime := sim.Time(float64(req.Op.Size) / (d.cfg.InterfaceMBps * 1e6) * 1e9)
		start := now
		if d.linkBusy > start {
			start = d.linkBusy
		}
		d.linkBusy = start + linkTime
		req.remaining++
		d.eng.Call(d.linkBusy-now, partDoneEvent, req)
	}
	if req.remaining == 0 {
		d.complete(req)
		return
	}
	for _, dur := range durs {
		if dur == 0 {
			continue
		}
		d.eng.Call(dur+d.cfg.CtrlOverhead, partDoneEvent, req)
	}
}

func (d *Device) addClassResp(req *Request, ms float64) {
	if req.Op.Priority {
		d.met.PriResp.Add(ms)
	} else {
		d.met.BgResp.Add(ms)
	}
}

func (d *Device) complete(req *Request) {
	req.Done = d.eng.Now()
	if req.internal {
		// A buffered write finished its media work: release the buffer
		// space; the host already saw its completion.
		d.bufOccupancy -= req.Op.Size
		d.putReq(req)
		return
	}
	d.met.Completed++
	if req.Op.Priority {
		d.outstandingPri--
	}
	if req.Err != nil {
		d.met.Errors++
	} else {
		ms := req.Response().Millis()
		switch req.Op.Kind {
		case trace.Read:
			d.met.BytesRead += req.Op.Size
			d.recordResp(req, ms)
		case trace.Write:
			d.met.BytesWritten += req.Op.Size
			d.recordResp(req, ms)
		case trace.Free:
			d.met.Frees++
		}
	}
	if req.onDone != nil {
		req.onDone(req)
	}
	d.putReq(req)
}

// recordResp folds a host completion into the response-time histograms.
func (d *Device) recordResp(req *Request, ms float64) {
	switch req.Op.Kind {
	case trace.Read:
		d.met.ReadResp.Add(ms)
	case trace.Write:
		d.met.WriteResp.Add(ms)
	}
	d.addClassResp(req, ms)
	d.met.Tenants.Record(req.Op.Tenant, req.Op.Kind == trace.Write, req.Op.Size, ms)
}
