// Package ssd assembles the full solid-state device from its substrates:
// a gang of flash packages each running a log-structured FTL
// (ossd/internal/ftl), a logical page layout that stripes or interleaves
// the address space across the gang, a device-level dispatch queue with
// FCFS or SWTF scheduling (§3.2), and cleaning control with low/critical
// watermarks and optional priority awareness (§3.6). Write amplification
// (§3.4) is emergent: a write that partially covers a logical page
// triggers read-modify-write of the whole stripe.
package ssd

import (
	"fmt"

	"ossd/internal/fault"
	"ossd/internal/flash"
	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/sim"
)

// Layout selects how the logical byte address space maps onto the gang.
type Layout int

const (
	// FullStripe makes the logical page a full stripe spanning every
	// element (the paper's Table 3 configuration: "a single 32 KB logical
	// page spanned over all the packages"). Writes smaller than the
	// stripe are amplified to the whole stripe.
	FullStripe Layout = iota
	// Interleaved maps each flash-page-sized logical page to one element
	// round-robin. Requests touch only the elements their range covers,
	// which is the configuration that gives schedulers freedom (§3.2).
	Interleaved
)

func (l Layout) String() string {
	if l == Interleaved {
		return "interleaved"
	}
	return "full-stripe"
}

// Config describes a device.
type Config struct {
	// Elements is the number of parallel flash packages in the gang.
	Elements int
	// MLCElements makes the last N elements MLC parts (§3.3's future
	// heterogeneous device): their pages are slower and less durable, and
	// the logical address space splits into an SLC region followed by an
	// MLC region, so the space is no longer interchangeable. Requires the
	// Interleaved layout.
	MLCElements int
	// Geom is the per-package geometry.
	Geom flash.Geometry
	// Timing is the per-package timing; zero value selects SLC defaults.
	Timing flash.Timing
	// EraseBudget per block; zero selects the SLC default.
	EraseBudget int
	// Overprovision is the spare-capacity fraction per element.
	Overprovision float64

	// Layout selects full-stripe or interleaved mapping.
	Layout Layout
	// StripeBytes is the logical page size for FullStripe layout. It must
	// be a multiple of Elements*Geom.PageSize. Ignored for Interleaved.
	StripeBytes int64

	// Scheduler selects the dispatch policy.
	Scheduler sched.Policy
	// TenantWeights, when non-empty, engages weighted fair-share
	// dispatch: the queue deficit-round-robins across tenant classes
	// with these scheduler weights (tenants absent from the map weigh
	// 1). Empty leaves the queue in legacy single-tenant mode, where
	// tenant tags affect only the per-tenant metrics.
	TenantWeights map[uint8]float64
	// CtrlOverhead is the per-element command overhead charged to every
	// element task of a request (interface decode, ECC, firmware).
	CtrlOverhead sim.Time
	// InterfaceMBps caps host-link throughput (SATA/firmware limit). The
	// link is a serial resource that overlaps with flash operations (DMA),
	// so it bounds sustained bandwidth without serializing the elements.
	// Zero means unlimited.
	InterfaceMBps float64

	// WriteBufferBytes enables a volatile write-back buffer: writes that
	// fit complete at RAM speed while an internal request does the flash
	// work in the background. A full buffer bypasses to the normal path,
	// which is why such caches mask latency but not sustained random-write
	// bandwidth — the paper's observation about S3slc's 16 MB cache
	// (§3.4). Zero disables the buffer.
	WriteBufferBytes int64

	// GCLow and GCCritical are the cleaning watermarks as free-page
	// fractions (paper defaults: 0.05 and 0.02). Zero disables the
	// corresponding trigger.
	GCLow, GCCritical float64
	// PriorityAware postpones low-watermark cleaning while priority
	// requests are outstanding (§3.6). Without it the device is
	// priority-agnostic: it cleans at the low watermark regardless.
	PriorityAware bool

	// Scheme selects the FTL mapping scheme per element (page-mapped
	// log-structured by default; block-mapped and hybrid log-block are
	// the classic cheaper alternatives).
	Scheme ftl.Scheme
	// Informed enables free-page-aware cleaning in the FTLs (§3.5).
	Informed bool
	// WearAware enables wear-leveling in the FTLs.
	WearAware bool
	// CostBenefit selects cost-benefit GC victim selection instead of
	// greedy in the page-mapped FTL.
	CostBenefit bool
	// WearDelta is the tolerated erase-count spread (0 = FTL default).
	WearDelta int

	// Fault attaches a deterministic failure-injection plan: transient
	// per-op errors and element deaths inject at dispatch, and the
	// plan's wear ceiling and remap cost flow into every element's FTL.
	Fault *fault.Plan
}

// Validate checks the configuration and fills derived defaults.
func (c *Config) Validate() error {
	if c.Elements <= 0 {
		return fmt.Errorf("ssd: need at least one element, got %d", c.Elements)
	}
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if c.Timing == (flash.Timing{}) {
		c.Timing = flash.TimingFor(flash.SLC)
	}
	if c.Layout == FullStripe {
		min := int64(c.Elements) * int64(c.Geom.PageSize)
		if c.StripeBytes == 0 {
			c.StripeBytes = min
		}
		if c.StripeBytes%min != 0 {
			return fmt.Errorf("ssd: stripe %d not a multiple of elements*page %d", c.StripeBytes, min)
		}
	}
	if c.MLCElements < 0 || c.MLCElements >= c.Elements {
		if c.MLCElements != 0 {
			return fmt.Errorf("ssd: MLCElements %d out of range [0, %d)", c.MLCElements, c.Elements)
		}
	}
	if c.MLCElements > 0 && c.Layout != Interleaved {
		return fmt.Errorf("ssd: heterogeneous media requires the Interleaved layout")
	}
	if c.GCLow < 0 || c.GCLow >= 1 || c.GCCritical < 0 || c.GCCritical >= 1 {
		return fmt.Errorf("ssd: watermarks out of range: low %v critical %v", c.GCLow, c.GCCritical)
	}
	if c.GCCritical > c.GCLow {
		return fmt.Errorf("ssd: critical watermark %v above low %v", c.GCCritical, c.GCLow)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// ftlConfig derives the FTL configuration for element e, selecting MLC
// timing and endurance for the MLC tail of a heterogeneous gang.
func (c *Config) ftlConfig(e int) ftl.Config {
	cfg := ftl.Config{
		Geom:          c.Geom,
		Timing:        c.Timing,
		EraseBudget:   c.EraseBudget,
		Overprovision: c.Overprovision,
		Informed:      c.Informed,
		WearAware:     c.WearAware,
		WearDelta:     c.WearDelta,
		CostBenefit:   c.CostBenefit,
	}
	if c.MLCElements > 0 && e >= c.Elements-c.MLCElements {
		cfg.Timing = flash.TimingFor(flash.MLC)
		cfg.EraseBudget = flash.EraseBudgetFor(flash.MLC)
	}
	if f := c.Fault; f != nil && f.WearCeiling > 0 {
		cfg.WearCeiling = f.WearCeiling
		cfg.RemapCost = f.RemapCost()
	}
	return cfg
}

// LogicalBytes returns the exported capacity of a device built from this
// configuration.
func (c *Config) LogicalBytes() int64 {
	el, err := ftl.NewBackend(c.Scheme, c.ftlConfig(0))
	if err != nil {
		return 0
	}
	perElem := int64(el.LogicalPages()) * int64(c.Geom.PageSize)
	total := perElem * int64(c.Elements)
	if c.Layout == FullStripe {
		// Round down to whole stripes.
		total = total / c.StripeBytes * c.StripeBytes
	}
	return total
}
