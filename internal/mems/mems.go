// Package mems models a MEMS-based storage device in the style of
// Griffin et al. (OSDI 2000) and Schlosser & Ganger (FAST 2004): a probe
// array over a spring-mounted media sled that seeks in X/Y and streams
// while sweeping. The paper's Table 1 includes this device class because
// it is the counter-example: MEMS storage *satisfies* the unwritten
// contract (sequential beats random, distance costs time, the address
// space is uniform, no amplification, no wear, no background activity),
// so the block interface fits it — unlike SSDs.
package mems

import (
	"fmt"
	"math"

	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Config describes the device.
type Config struct {
	// CapacityBytes is the media capacity.
	CapacityBytes int64
	// StreamMBps is the sustained streaming rate while sweeping.
	StreamMBps float64
	// Settle is the post-seek oscillation settling time.
	Settle sim.Time
	// FullStroke is the X-displacement time across the whole sled.
	FullStroke sim.Time
	// Tracks is the number of sweep columns (defines the X coordinate of
	// an LBA).
	Tracks int
}

// G2 returns the second-generation device parameters used by Schlosser &
// Ganger: ~3.5 GB, ~76 MB/s streaming, sub-millisecond seeks.
func G2() Config {
	return Config{
		CapacityBytes: 3584 << 20,
		StreamMBps:    76,
		Settle:        200 * sim.Microsecond,
		FullStroke:    800 * sim.Microsecond,
		Tracks:        10000,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.CapacityBytes <= 0 || c.StreamMBps <= 0 || c.Tracks <= 0 {
		return fmt.Errorf("mems: invalid config %+v", *c)
	}
	return nil
}

// Metrics accumulates measurements.
type Metrics struct {
	Completed               int64
	ReadResp, WriteResp     stats.Histogram // ms
	BytesRead, BytesWritten int64
	// Frees counts free notifications, each completed as a no-op.
	Frees int64
	Seeks int64
	// Tenants breaks completed host transfers down per tenant class.
	Tenants stats.TenantSet
}

// Request mirrors the device request lifecycle.
type Request struct {
	Op                  trace.Op
	Arrive, Start, Done sim.Time
	onDone              func(*Request)
	// dev lets the pooled engine callback reach the model without a
	// closure per event.
	dev *Device
}

// Response returns completion minus arrival.
func (r *Request) Response() sim.Time { return r.Done - r.Arrive }

// Device is the MEMS store. Single actuator: one request at a time,
// FCFS, dispatched through the shared indexed queue.
type Device struct {
	cfg Config
	eng *sim.Engine

	track   int   // sled X position
	lastEnd int64 // for sequential detection
	q       *sched.Queue
	drv     *sched.Driver
	met     Metrics
}

// sled is the element set of every access: the one media sled.
var sled = []int{0}

// New builds a device.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, eng: eng}
	d.q = sched.NewQueue(sched.FCFS, 1)
	d.drv = sched.NewDriver(eng, d.q, d.serve)
	return d, nil
}

// Engine returns the driving engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// LogicalBytes reports the capacity.
func (d *Device) LogicalBytes() int64 { return d.cfg.CapacityBytes }

// Metrics returns a snapshot.
func (d *Device) Metrics() Metrics { return d.met }

// trackOf maps an offset to its sweep column.
func (d *Device) trackOf(off int64) int {
	return int(float64(off) / float64(d.cfg.CapacityBytes) * float64(d.cfg.Tracks))
}

// seekTime is the sled displacement cost: square-root-of-distance spring
// dynamics plus a constant settle, per Griffin et al.
func (d *Device) seekTime(from, to int) sim.Time {
	if from == to {
		return 0
	}
	frac := math.Abs(float64(from-to)) / float64(d.cfg.Tracks)
	d.met.Seeks++
	return d.cfg.Settle + sim.Time(float64(d.cfg.FullStroke)*math.Sqrt(frac))
}

// serviceTime is one access: seek (skipped for sequential continuation)
// plus streaming transfer.
func (d *Device) serviceTime(op trace.Op) sim.Time {
	xfer := sim.Time(float64(op.Size) / (d.cfg.StreamMBps * 1e6) * 1e9)
	if op.Offset == d.lastEnd {
		d.lastEnd = op.End()
		d.track = d.trackOf(op.End())
		return xfer
	}
	seek := d.seekTime(d.track, d.trackOf(op.Offset))
	d.track = d.trackOf(op.End())
	d.lastEnd = op.End()
	return seek + xfer
}

// Submit enqueues a request; the single actuator serves FIFO.
func (d *Device) Submit(op trace.Op, onDone func(*Request)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > d.cfg.CapacityBytes {
		return fmt.Errorf("mems: request [%d, +%d) beyond capacity", op.Offset, op.Size)
	}
	req := &Request{Op: op, Arrive: d.eng.Now(), onDone: onDone, dev: d}
	if op.Kind == trace.Free {
		d.met.Frees++
		d.finish(req)
		return nil
	}
	d.q.PushT(sled, req, op.Tenant, op.Size)
	d.drv.Pump()
	return nil
}

// QueueDepth reports requests waiting for the sled.
func (d *Device) QueueDepth() int { return d.q.Len() }

// servedEvent is the pooled engine callback for a finished sled access:
// complete the request and pump the dispatch loop.
func servedEvent(a any) {
	req := a.(*Request)
	req.dev.finish(req)
	req.dev.drv.Pump()
}

// serve starts one access on the sled.
func (d *Device) serve(data any, now sim.Time) {
	req := data.(*Request)
	req.Start = now
	dur := d.serviceTime(req.Op)
	d.q.SetBusy(0, now+dur)
	d.eng.Call(dur, servedEvent, req)
}

func (d *Device) finish(req *Request) {
	req.Done = d.eng.Now()
	d.met.Completed++
	ms := req.Response().Millis()
	switch req.Op.Kind {
	case trace.Read:
		d.met.ReadResp.Add(ms)
		d.met.BytesRead += req.Op.Size
		d.met.Tenants.Record(req.Op.Tenant, false, req.Op.Size, ms)
	case trace.Write:
		d.met.WriteResp.Add(ms)
		d.met.BytesWritten += req.Op.Size
		d.met.Tenants.Record(req.Op.Tenant, true, req.Op.Size, ms)
	}
	if req.onDone != nil {
		req.onDone(req)
	}
}
