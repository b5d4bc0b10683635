// Package hdd models a 7200 RPM hard disk for the paper's Table 2
// baseline: a seek-time curve, rotational position tracking, zoned
// recording (outer tracks transfer faster), and a write-back cache that
// drains in CLOOK (elevator) order — the mechanism behind the Barracuda's
// random-write bandwidth exceeding its random-read bandwidth.
package hdd

import (
	"fmt"
	"math"
	"sort"

	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

// Config describes the disk.
type Config struct {
	// CapacityBytes is the formatted capacity.
	CapacityBytes int64
	// Cylinders is the number of seek positions.
	Cylinders int
	// Zones is the number of recording zones; zone 0 is outermost and
	// fastest.
	Zones int
	// RPM is the spindle speed.
	RPM int
	// MaxTransferMBps is the outer-zone media rate in MB/s; the inner
	// zone runs at roughly 55% of it, matching typical 3.5" drives.
	MaxTransferMBps float64
	// TrackToTrack, FullStroke are seek-curve anchors.
	TrackToTrack, FullStroke sim.Time
	// CacheBytes is the write-back cache size (0 disables write caching).
	CacheBytes int64
	// CacheLatency is the host-visible latency of a cache-absorbed write.
	CacheLatency sim.Time
}

// Barracuda7200 returns parameters approximating the Seagate Barracuda
// 7200.11 used in the paper's Table 2.
func Barracuda7200() Config {
	return Config{
		CapacityBytes:   500e9,
		Cylinders:       150_000,
		Zones:           16,
		RPM:             7200,
		MaxTransferMBps: 87,
		TrackToTrack:    800 * sim.Microsecond,
		FullStroke:      18 * sim.Millisecond,
		CacheBytes:      16 << 20,
		CacheLatency:    100 * sim.Microsecond,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.CapacityBytes <= 0 || c.Cylinders <= 0 || c.RPM <= 0 || c.MaxTransferMBps <= 0 {
		return fmt.Errorf("hdd: invalid config %+v", *c)
	}
	if c.Zones <= 0 {
		c.Zones = 1
	}
	return nil
}

// Metrics accumulates disk measurements.
type Metrics struct {
	Completed               int64
	ReadResp, WriteResp     stats.Histogram // milliseconds
	BytesRead, BytesWritten int64
	// Frees counts free notifications, each completed as a no-op.
	Frees     int64
	CacheHits int64
	Seeks     int64
	// Tenants breaks completed host transfers down per tenant class.
	Tenants stats.TenantSet
}

// cacheEntry is one dirty range in the write-back cache.
type cacheEntry struct {
	off, size int64
}

// Disk is the simulated drive. Like ssd.Device it is driven entirely by a
// sim.Engine and is single-threaded.
type Disk struct {
	cfg Config
	eng *sim.Engine

	revTime     sim.Time
	bytesPerCyl float64 // average, used for LBA->cylinder mapping per zone
	zoneRate    []float64
	zoneStart   []int64 // starting byte of each zone
	zoneCyls    int

	headCyl int
	lastEnd int64 // end offset of the previous media access (for sequential detection)
	// q holds media accesses awaiting the (single) actuator in FCFS
	// order; drv is the shared dispatch loop, with the write-cache drain
	// as its post hook.
	q         *sched.Queue
	drv       *sched.Driver
	cache     []cacheEntry // sorted by offset
	cacheUsed int64
	waitWr    []*Request // writes blocked on cache space
	// draining carries in-flight cache flushes to their pooled
	// completion events, in start order. Drains are serialized by the
	// busy actuator, but at the exact tick one ends an earlier-scheduled
	// arrival can pump the driver and start the next flush before the
	// first drainDoneEvent runs — so this is a (tiny) FIFO, not a single
	// slot. Steady state reuses the slice's capacity.
	draining []cacheEntry

	met Metrics
}

// Request mirrors the ssd request lifecycle for the disk.
type Request struct {
	Op                  trace.Op
	Arrive, Start, Done sim.Time
	onDone              func(*Request)
	// disk lets the pooled engine callbacks reach the model without a
	// closure per event.
	disk *Disk
}

// Response returns completion minus arrival.
func (r *Request) Response() sim.Time { return r.Done - r.Arrive }

// New builds a disk on the engine.
func New(eng *sim.Engine, cfg Config) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{cfg: cfg, eng: eng}
	// One parallel element — the actuator — dispatched FCFS through the
	// same indexed queue the SSD gang uses.
	d.q = sched.NewQueue(sched.FCFS, 1)
	d.drv = sched.NewDriver(eng, d.q, d.serve)
	d.drv.SetHooks(nil, d.drain)
	d.revTime = sim.Time(60e9 / float64(cfg.RPM))
	d.zoneCyls = cfg.Cylinders / cfg.Zones
	// Zone media rates fall linearly from max (outer) to 55% (inner).
	d.zoneRate = make([]float64, cfg.Zones)
	total := 0.0
	for z := 0; z < cfg.Zones; z++ {
		frac := 1 - 0.45*float64(z)/float64(max(cfg.Zones-1, 1))
		d.zoneRate[z] = cfg.MaxTransferMBps * 1e6 * frac
		total += frac
	}
	// Bytes per zone proportional to its rate (same cylinders per zone,
	// density ∝ rate).
	d.zoneStart = make([]int64, cfg.Zones+1)
	var acc float64
	for z := 0; z < cfg.Zones; z++ {
		d.zoneStart[z] = int64(acc / total * float64(cfg.CapacityBytes))
		acc += 1 - 0.45*float64(z)/float64(max(cfg.Zones-1, 1))
	}
	d.zoneStart[cfg.Zones] = cfg.CapacityBytes
	return d, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Engine returns the driving engine.
func (d *Disk) Engine() *sim.Engine { return d.eng }

// LogicalBytes reports the capacity.
func (d *Disk) LogicalBytes() int64 { return d.cfg.CapacityBytes }

// Metrics returns a snapshot.
func (d *Disk) Metrics() Metrics { return d.met }

// QueueDepth reports host requests waiting for the actuator: queued
// media accesses plus writes blocked on cache space.
func (d *Disk) QueueDepth() int { return d.q.Len() + len(d.waitWr) }

// zoneOf maps a byte offset to its zone.
func (d *Disk) zoneOf(off int64) int {
	z := sort.Search(d.cfg.Zones, func(i int) bool { return d.zoneStart[i+1] > off })
	if z >= d.cfg.Zones {
		z = d.cfg.Zones - 1
	}
	return z
}

// cylOf maps a byte offset to a cylinder.
func (d *Disk) cylOf(off int64) int {
	z := d.zoneOf(off)
	zBytes := d.zoneStart[z+1] - d.zoneStart[z]
	within := float64(off-d.zoneStart[z]) / float64(zBytes)
	return z*d.zoneCyls + int(within*float64(d.zoneCyls))
}

// seekTime models the seek curve through the two anchor points: a
// sqrt-dominated short-seek region and a linear long-seek region.
func (d *Disk) seekTime(fromCyl, toCyl int) sim.Time {
	dist := fromCyl - toCyl
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := float64(dist) / float64(d.cfg.Cylinders)
	t := float64(d.cfg.TrackToTrack) +
		0.25*float64(d.cfg.FullStroke)*math.Sqrt(frac) +
		0.70*float64(d.cfg.FullStroke)*frac
	return sim.Time(t)
}

// rotTime returns the rotational delay to reach the target offset's
// angular position given the current time.
func (d *Disk) rotTime(off int64, at sim.Time) sim.Time {
	// Angular position of the target sector: proportional to its byte
	// position within its (approximate) track.
	z := d.zoneOf(off)
	trackBytes := d.zoneRate[z] * d.revTime.Seconds()
	target := math.Mod(float64(off), trackBytes) / trackBytes
	head := math.Mod(float64(at), float64(d.revTime)) / float64(d.revTime)
	delta := target - head
	if delta < 0 {
		delta++
	}
	return sim.Time(delta * float64(d.revTime))
}

// xferTime is the media transfer time for size bytes at the offset's zone
// rate.
func (d *Disk) xferTime(off, size int64) sim.Time {
	return sim.Time(float64(size) / d.zoneRate[d.zoneOf(off)] * 1e9)
}

// serviceTime computes one media access: sequential continuation skips
// the mechanical delays entirely.
func (d *Disk) serviceTime(off, size int64) sim.Time {
	if off == d.lastEnd {
		d.lastEnd = off + size
		d.headCyl = d.cylOf(off + size)
		return d.xferTime(off, size)
	}
	seek := d.seekTime(d.headCyl, d.cylOf(off))
	d.met.Seeks++
	rot := d.rotTime(off, d.eng.Now()+seek)
	d.headCyl = d.cylOf(off)
	d.lastEnd = off + size
	return seek + rot + d.xferTime(off, size)
}

// Submit enqueues an operation at the current simulated time. Frees are
// ignored by disks (no TRIM on this model) but complete successfully.
func (d *Disk) Submit(op trace.Op, onDone func(*Request)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > d.cfg.CapacityBytes {
		return fmt.Errorf("hdd: request [%d, +%d) beyond capacity", op.Offset, op.Size)
	}
	req := &Request{Op: op, Arrive: d.eng.Now(), onDone: onDone, disk: d}
	switch op.Kind {
	case trace.Free:
		d.met.Frees++
		d.finish(req)
	case trace.Read:
		if d.cacheCovers(op.Offset, op.Size) {
			d.met.CacheHits++
			d.eng.Call(d.cfg.CacheLatency, finishEvent, req)
			break
		}
		d.q.PushT(actuator, req, op.Tenant, op.Size)
		d.drv.Pump()
	case trace.Write:
		if d.cfg.CacheBytes == 0 {
			// Write-through: treat like a read-path media access.
			d.q.PushT(actuator, req, op.Tenant, op.Size)
			d.drv.Pump()
			break
		}
		if d.cacheUsed+op.Size <= d.cfg.CacheBytes {
			d.cacheInsert(op.Offset, op.Size)
			d.eng.Call(d.cfg.CacheLatency, finishEvent, req)
			d.drv.Pump()
		} else {
			d.waitWr = append(d.waitWr, req)
			d.drv.Pump()
		}
	}
	return nil
}

// actuator is the element set of every disk access: the one arm.
var actuator = []int{0}

// finishEvent is the pooled engine callback completing a request with no
// further media work (cache hits and cache-absorbed writes).
func finishEvent(a any) {
	req := a.(*Request)
	req.disk.finish(req)
}

// servedEvent is the pooled engine callback for a finished media access:
// complete the request and pump the dispatch loop.
func servedEvent(a any) {
	req := a.(*Request)
	req.disk.finish(req)
	req.disk.drv.Pump()
}

// drainDoneEvent is the pooled engine callback for a finished cache
// flush; arg is the *Disk since drain victims are cache ranges, not
// requests. Completion events fire in start order (flushes never
// overlap), so the oldest in-flight entry is always the one finishing.
func drainDoneEvent(a any) {
	d := a.(*Disk)
	e := d.draining[0]
	d.draining = d.draining[:copy(d.draining, d.draining[1:])]
	d.drained(e)
	d.drv.Pump()
}

func (d *Disk) finish(req *Request) {
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

// serve starts one queued media access (the driver dispatches reads and
// write-through writes ahead of the drain hook, preserving read
// priority over background cache flushes).
func (d *Disk) serve(data any, now sim.Time) {
	req := data.(*Request)
	req.Start = now
	dur := d.serviceTime(req.Op.Offset, req.Op.Size)
	d.q.SetBusy(0, now+dur)
	d.eng.Call(dur, servedEvent, req)
}

// drain is the driver's post-dispatch hook: when the actuator is idle
// and dirty cache entries exist, flush the CLOOK victim.
func (d *Disk) drain(now sim.Time) bool {
	if !d.q.Idle(0, now) || len(d.cache) == 0 {
		return false
	}
	e := d.nextDrain()
	dur := d.serviceTime(e.off, e.size)
	d.q.SetBusy(0, now+dur)
	d.draining = append(d.draining, e)
	d.eng.Call(dur, drainDoneEvent, d)
	return true
}

// cacheCovers reports whether a read range is entirely dirty in cache.
func (d *Disk) cacheCovers(off, size int64) bool {
	i := sort.Search(len(d.cache), func(i int) bool { return d.cache[i].off+d.cache[i].size > off })
	return i < len(d.cache) && d.cache[i].off <= off && off+size <= d.cache[i].off+d.cache[i].size
}

// cacheInsert adds a dirty range, kept sorted by offset. Overlaps merge.
func (d *Disk) cacheInsert(off, size int64) {
	d.cacheUsed += size
	i := sort.Search(len(d.cache), func(i int) bool { return d.cache[i].off >= off })
	d.cache = append(d.cache, cacheEntry{})
	copy(d.cache[i+1:], d.cache[i:])
	d.cache[i] = cacheEntry{off: off, size: size}
}

// nextDrain picks the CLOOK victim: the first dirty entry at or beyond
// the head's cylinder, wrapping to the lowest offset.
func (d *Disk) nextDrain() cacheEntry {
	headOff := d.lastEnd
	i := sort.Search(len(d.cache), func(i int) bool { return d.cache[i].off >= headOff })
	if i == len(d.cache) {
		i = 0
	}
	return d.cache[i]
}

// drained removes a flushed entry and admits waiting writes.
func (d *Disk) drained(e cacheEntry) {
	for i := range d.cache {
		if d.cache[i] == e {
			d.cache = append(d.cache[:i], d.cache[i+1:]...)
			break
		}
	}
	d.cacheUsed -= e.size
	for len(d.waitWr) > 0 {
		req := d.waitWr[0]
		if d.cacheUsed+req.Op.Size > d.cfg.CacheBytes {
			break
		}
		// Nil the vacated slot so the advancing slice window does not pin
		// the admitted request for the collector.
		d.waitWr[0] = nil
		d.waitWr = d.waitWr[1:]
		d.cacheInsert(req.Op.Offset, req.Op.Size)
		d.finish(req)
	}
}
