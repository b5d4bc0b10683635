package core

import (
	"ossd/internal/hdd"
	"ossd/internal/mems"
	"ossd/internal/raid"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// RAID wraps the RAID-5 array model as a core.Device (Table 1's RAID
// column).
type RAID struct {
	Raw *raid.Array
	driveConfig
}

// NewRAID builds an array on a fresh engine. Prefer Open or Build; this
// remains for callers holding a raw raid.Config.
func NewRAID(cfg raid.Config) (*RAID, error) {
	a, err := raid.New(sim.NewEngine(), cfg)
	if err != nil {
		return nil, err
	}
	return &RAID{Raw: a}, nil
}

// Submit implements Device. The array has no TRIM: a free completes as
// a metadata no-op (and is counted in Snapshot.Frees).
func (r *RAID) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	var cb func(*raid.Request)
	if onDone != nil {
		cb = func(q *raid.Request) { onDone(q.Response(), nil) }
	}
	return r.Raw.Submit(op, cb)
}

// Drive implements Device.
func (r *RAID) Drive(st trace.Stream) error { return drive(r, st, r.MaxPending) }

// ClosedLoop implements Device.
func (r *RAID) ClosedLoop(depth int, gen func(int) (trace.Op, bool)) error {
	return closedLoop(r, depth, gen)
}

// Engine implements Device.
func (r *RAID) Engine() *sim.Engine { return r.Raw.Engine() }

// LogicalBytes implements Device.
func (r *RAID) LogicalBytes() int64 { return r.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (r *RAID) QueueDepth() int { return r.Raw.QueueDepth() }

// Metrics implements Device.
func (r *RAID) Metrics() Snapshot {
	m := r.Raw.Metrics()
	s := Snapshot{
		Completed:    m.Completed,
		BytesRead:    m.BytesRead,
		BytesWritten: m.BytesWritten,
		Frees:        m.Frees,
		Tenants:      tenantSnapshots(m.Tenants),
	}
	s.fillLatency(m.ReadResp, m.WriteResp)
	return s
}

// MEMS wraps the MEMS-storage model as a core.Device (Table 1's MEMS
// column).
type MEMS struct {
	Raw *mems.Device
	driveConfig
}

// NewMEMS builds a device on a fresh engine. Prefer Open or Build; this
// remains for callers holding a raw mems.Config.
func NewMEMS(cfg mems.Config) (*MEMS, error) {
	d, err := mems.New(sim.NewEngine(), cfg)
	if err != nil {
		return nil, err
	}
	return &MEMS{Raw: d}, nil
}

// Submit implements Device. MEMS media writes in place: a free
// completes as a metadata no-op (and is counted in Snapshot.Frees).
func (m *MEMS) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	var cb func(*mems.Request)
	if onDone != nil {
		cb = func(q *mems.Request) { onDone(q.Response(), nil) }
	}
	return m.Raw.Submit(op, cb)
}

// Drive implements Device.
func (m *MEMS) Drive(st trace.Stream) error { return drive(m, st, m.MaxPending) }

// ClosedLoop implements Device.
func (m *MEMS) ClosedLoop(depth int, gen func(int) (trace.Op, bool)) error {
	return closedLoop(m, depth, gen)
}

// Engine implements Device.
func (m *MEMS) Engine() *sim.Engine { return m.Raw.Engine() }

// LogicalBytes implements Device.
func (m *MEMS) LogicalBytes() int64 { return m.Raw.LogicalBytes() }

// QueueDepth implements Device.
func (m *MEMS) QueueDepth() int { return m.Raw.QueueDepth() }

// Metrics implements Device.
func (m *MEMS) Metrics() Snapshot {
	mm := m.Raw.Metrics()
	s := Snapshot{
		Completed:    mm.Completed,
		BytesRead:    mm.BytesRead,
		BytesWritten: mm.BytesWritten,
		Frees:        mm.Frees,
		Tenants:      tenantSnapshots(mm.Tenants),
	}
	s.fillLatency(mm.ReadResp, mm.WriteResp)
	return s
}

// DefaultRAID is the Table 1 array: five Barracuda-class spindles,
// 64 KiB stripe units.
func DefaultRAID() raid.Config {
	return raid.Config{Disks: 5, Disk: hdd.Barracuda7200(), StripeUnitBytes: 64 << 10}
}

// DefaultMEMS is the Table 1 MEMS device (Schlosser & Ganger's G2).
func DefaultMEMS() mems.Config { return mems.G2() }

// Compile-time interface checks.
var (
	_ Device = (*RAID)(nil)
	_ Device = (*MEMS)(nil)
)
