package core

import (
	"fmt"

	"ossd/internal/osd"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/trace"
)

// OSD is the paper's §3.7 proposal as a core.Device: an object store
// fronting the flash device, with the device's address space exposed
// through a single pre-reserved volume object. Block reads and writes
// travel the object path — stripe-aligned extents allocated inside the
// device — and Free notifications reach the FTL as the §3.5 informed-
// cleaning signal. The store and device stay reachable via Store and Raw
// for object-level use (Create/Delete/attributes).
type OSD struct {
	Raw   *ssd.Device
	Store *osd.Store
	driveConfig
	vol   osd.ObjectID
	bytes int64
}

// NewOSD builds a flash device on a fresh engine, fronts it with an
// object store, and reserves one volume object spanning the store's
// first region (the whole device on homogeneous media, the SLC region on
// heterogeneous ones).
func NewOSD(cfg ssd.Config) (*OSD, error) {
	dev, err := ssd.New(sim.NewEngine(), cfg)
	if err != nil {
		return nil, err
	}
	st, err := osd.New(dev)
	if err != nil {
		return nil, err
	}
	space := dev.LogicalBytes()
	if b := dev.RegionBoundary(); b > 0 {
		space = b
	}
	// Create with Priority so heterogeneous stores place the volume in
	// region 0 (SLC) — the span reserved below — then drop the attribute
	// so block I/O is not priority-tagged. Placement is fixed at create.
	vol := st.Create(osd.Attributes{Priority: true})
	if err := st.SetAttributes(vol, osd.Attributes{}); err != nil {
		return nil, err
	}
	if err := st.Reserve(vol, space); err != nil {
		return nil, fmt.Errorf("core: reserve %d-byte volume: %w", space, err)
	}
	return &OSD{Raw: dev, Store: st, vol: vol, bytes: space}, nil
}

// Volume returns the backing volume object's ID.
func (o *OSD) Volume() osd.ObjectID { return o.vol }

// Submit implements Device: reads, writes, and frees all go through the
// object store's extent mapping, so frees land on exactly the device
// pages backing the volume bytes (TRIM through the object interface).
func (o *OSD) Submit(op trace.Op, onDone func(sim.Time, error)) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.End() > o.bytes {
		return fmt.Errorf("core: osd request [%d, +%d) beyond %d-byte volume", op.Offset, op.Size, o.bytes)
	}
	start := o.Raw.Engine().Now()
	var done func(error)
	if onDone != nil {
		done = func(err error) { onDone(o.Raw.Engine().Now()-start, err) }
	}
	switch op.Kind {
	case trace.Read:
		return o.Store.ReadAs(o.vol, op.Offset, op.Size, op.Tenant, done)
	case trace.Free:
		return o.Store.FreeRange(o.vol, op.Offset, op.Size, done)
	default:
		return o.Store.WriteAs(o.vol, op.Offset, op.Size, op.Tenant, done)
	}
}

// Drive implements Device.
func (o *OSD) Drive(st trace.Stream) error { return drive(o, st, o.MaxPending) }

// ClosedLoop implements Device.
func (o *OSD) ClosedLoop(depth int, gen func(int) (trace.Op, bool)) error {
	return closedLoop(o, depth, gen)
}

// Engine implements Device.
func (o *OSD) Engine() *sim.Engine { return o.Raw.Engine() }

// LogicalBytes implements Device: the volume's span, not the raw
// device's (they differ on heterogeneous media).
func (o *OSD) LogicalBytes() int64 { return o.bytes }

// QueueDepth implements Device.
func (o *OSD) QueueDepth() int { return o.Raw.QueueDepth() }

// Metrics implements Device.
func (o *OSD) Metrics() Snapshot { return ssdSnapshot(o.Raw.Metrics()) }

var _ Device = (*OSD)(nil)
