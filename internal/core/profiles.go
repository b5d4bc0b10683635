package core

import (
	"fmt"
	"sync/atomic"

	"ossd/internal/fault"
	"ossd/internal/flash"
	"ossd/internal/hdd"
	"ossd/internal/mems"
	"ossd/internal/raid"
	"ossd/internal/sched"
	"ossd/internal/sim"
	"ossd/internal/ssd"
)

// Kind selects which media model a profile instantiates.
type Kind int

const (
	// KindSSD is the flash device (the default).
	KindSSD Kind = iota
	// KindHDD is the disk model.
	KindHDD
	// KindMEMS is the MEMS-storage model.
	KindMEMS
	// KindRAID is the RAID-5 array model.
	KindRAID
	// KindOSD is the flash device fronted by the object store (§3.7).
	KindOSD
)

func (k Kind) String() string {
	switch k {
	case KindSSD:
		return "ssd"
	case KindHDD:
		return "hdd"
	case KindMEMS:
		return "mems"
	case KindRAID:
		return "raid"
	case KindOSD:
		return "osd"
	default:
		return "?"
	}
}

// Profile is a named device configuration plus the measurement settings
// (request sizes, queue depths) its class of device would be benchmarked
// with. The paper anonymizes its engineering samples as S1slc..S5mlc and
// characterizes them only through Table 2; each profile here is a
// simulator parameterization chosen to reproduce that characterization's
// shape.
type Profile struct {
	// Name matches the paper's device label.
	Name string
	// Description summarizes the device class.
	Description string
	// Kind selects the media model; the matching config field applies.
	Kind Kind
	// HDD, SSD, MEMS, and RAID hold the respective configurations (SSD
	// also parameterizes KindOSD).
	HDD  hdd.Config
	SSD  ssd.Config
	MEMS mems.Config
	RAID raid.Config
	// SeqReqBytes/RandReqBytes are the benchmark request sizes.
	SeqReqBytes, RandReqBytes int64
	// Per-test queue depths: real devices are benchmarked at the depth
	// their firmware is designed for (e.g. deep NCQ write queues on
	// high-end parts).
	SeqReadDepth, RandReadDepth, SeqWriteDepth, RandWriteDepth int
	// Seed is the profile's default measurement seed: metadata for
	// callers that look it up via ProfileByName (zero means unset; no
	// built-in profile sets one).
	Seed int64
	// MaxPending bounds the requests outstanding while the device is
	// driven open loop (Drive): admission control against arrival
	// storms. 0 means unbounded (see WithMaxPending).
	MaxPending int
	// Fault is the device's fault plan (see internal/fault): deterministic
	// transient errors, element deaths, and wear ceilings, applied to any
	// media kind. Flash devices inject per-element inside their dispatch
	// path; other media are wrapped by the generic per-op injector. nil
	// falls back to the process default (SetDefaultFault); leaving both
	// unset runs fault-free.
	Fault *fault.Plan
}

// defaultFault is the process-wide fault-plan fallback for profiles that
// do not set one (see SetDefaultFault).
var defaultFault atomic.Pointer[fault.Plan]

// SetDefaultFault sets the process-wide fault plan applied to every
// device built without an explicit Profile.Fault — the hook the
// command-line -fault flags use, since experiments construct their
// devices internally. nil restores fault-free execution. It returns the
// previous default.
func SetDefaultFault(p *fault.Plan) *fault.Plan {
	return defaultFault.Swap(p)
}

// NewDevice instantiates the profile's device on a fresh engine.
func (p *Profile) NewDevice() (Device, error) {
	plan := p.Fault
	if plan == nil {
		plan = defaultFault.Load()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	var (
		d   Device
		err error
	)
	switch p.Kind {
	case KindHDD:
		d, err = NewHDD(p.HDD)
	case KindMEMS:
		d, err = NewMEMS(p.MEMS)
	case KindRAID:
		d, err = NewRAID(p.RAID)
	case KindOSD:
		cfg := p.SSD
		cfg.Fault = plan
		d, err = NewOSD(cfg)
	default:
		cfg := p.SSD
		cfg.Fault = plan
		d, err = NewSSD(cfg)
	}
	if err != nil {
		return nil, err
	}
	// Non-flash media get the generic per-op injector; the wrapper embeds
	// driveConfig, so the MaxPending hook below lands on the outermost
	// layer (admission control sees the faulted device).
	if p.Kind == KindHDD || p.Kind == KindMEMS || p.Kind == KindRAID {
		d = WrapFault(d, plan)
	}
	if p.MaxPending > 0 {
		mp, ok := d.(interface{ setMaxPending(int) })
		if !ok {
			// Fail loudly (like every other inapplicable option) instead
			// of silently dropping the bound on a wrapper that does not
			// embed driveConfig.
			return nil, fmt.Errorf("core: %s device does not support MaxPending", p.Kind)
		}
		mp.setMaxPending(p.MaxPending)
	}
	return d, nil
}

// geometry helper: pageSize 4 KB, 64 pages/block.
func geom(blocksPerPackage int) flash.Geometry {
	return flash.Geometry{PageSize: 4096, PagesPerBlock: 64, BlocksPerPackage: blocksPerPackage}
}

// Profiles returns the Table 2 device set. SSD capacities are scaled to
// ~256 MB per device (geometry ratios preserved) so the full suite runs
// in seconds; bandwidth depends on timing and layout, not capacity.
func Profiles() []Profile {
	slc := flash.TimingFor(flash.SLC)
	mlc := flash.TimingFor(flash.MLC)
	return []Profile{
		{
			Name:        "HDD",
			Description: "Seagate Barracuda 7200.11 class disk",
			Kind:        KindHDD,
			HDD:         hdd.Barracuda7200(),
			SeqReqBytes: 1 << 20, RandReqBytes: 4096,
			SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
		},
		{
			Name:        "S1slc",
			Description: "high-end SLC: wide interleaving, deep write queues",
			SSD: ssd.Config{
				Elements:      16,
				Geom:          geom(64),
				Timing:        flash.Timing{PageRead: slc.PageRead, PageProgram: slc.PageProgram, BlockErase: slc.BlockErase, BusPerByte: 60 * sim.Nanosecond},
				Overprovision: 0.10,
				Layout:        ssd.Interleaved,
				Scheduler:     sched.SWTF,
				CtrlOverhead:  25 * sim.Microsecond,
				InterfaceMBps: 210,
				GCLow:         0.05, GCCritical: 0.02,
			},
			SeqReqBytes: 1 << 20, RandReqBytes: 4096,
			SeqReadDepth: 1, RandReadDepth: 2, SeqWriteDepth: 1, RandWriteDepth: 8,
		},
		{
			Name:        "S2slc",
			Description: "low-end SLC: 1 MB stripe, no write merging",
			SSD: ssd.Config{
				Elements:      8,
				Geom:          geom(128),
				Timing:        flash.Timing{PageRead: slc.PageRead, PageProgram: slc.PageProgram, BlockErase: slc.BlockErase, BusPerByte: 200 * sim.Nanosecond},
				Overprovision: 0.10,
				Layout:        ssd.FullStripe,
				Scheduler:     sched.SWTF,
				StripeBytes:   1 << 20,
				CtrlOverhead:  100 * sim.Microsecond,
				GCLow:         0.05, GCCritical: 0.02,
			},
			SeqReqBytes: 1 << 20, RandReqBytes: 4096,
			SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
		},
		{
			Name:        "S3slc",
			Description: "mid-range SLC: 256 KB stripe, fast reads, interface-capped",
			SSD: ssd.Config{
				Elements:      8,
				Geom:          geom(128),
				Timing:        flash.Timing{PageRead: slc.PageRead, PageProgram: slc.PageProgram, BlockErase: slc.BlockErase, BusPerByte: 60 * sim.Nanosecond},
				Overprovision: 0.10,
				Layout:        ssd.FullStripe,
				Scheduler:     sched.SWTF,
				StripeBytes:   256 << 10,
				CtrlOverhead:  15 * sim.Microsecond,
				InterfaceMBps: 76,
				// The real S3 had a 16 MB write cache the paper found
				// "ineffective in masking the write amplifications".
				WriteBufferBytes: 16 << 20,
				GCLow:            0.05, GCCritical: 0.02,
			},
			SeqReqBytes: 256 << 10, RandReqBytes: 4096,
			SeqReadDepth: 1, RandReadDepth: 2, SeqWriteDepth: 1, RandWriteDepth: 1,
		},
		{
			Name:        "S4slc_sim",
			Description: "the paper's simulated SSD: page mapping, seq/rand ratio near 1",
			SSD: ssd.Config{
				Elements:      8,
				Geom:          geom(128),
				Timing:        flash.Timing{PageRead: slc.PageRead, PageProgram: slc.PageProgram, BlockErase: slc.BlockErase, BusPerByte: 25 * sim.Nanosecond},
				Overprovision: 0.10,
				Layout:        ssd.Interleaved,
				Scheduler:     sched.SWTF,
				CtrlOverhead:  10 * sim.Microsecond,
				GCLow:         0.05, GCCritical: 0.02,
			},
			SeqReqBytes: 4096, RandReqBytes: 4096,
			SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 2, RandWriteDepth: 2,
		},
		{
			Name:        "S5mlc",
			Description: "MLC device: slower writes, modest parallelism",
			SSD: ssd.Config{
				Elements:      8,
				Geom:          geom(128),
				Timing:        flash.Timing{PageRead: mlc.PageRead, PageProgram: mlc.PageProgram, BlockErase: mlc.BlockErase, BusPerByte: 80 * sim.Nanosecond},
				EraseBudget:   flash.EraseBudgetFor(flash.MLC),
				Overprovision: 0.10,
				Layout:        ssd.Interleaved,
				Scheduler:     sched.SWTF,
				CtrlOverhead:  20 * sim.Microsecond,
				InterfaceMBps: 68,
				GCLow:         0.05, GCCritical: 0.02,
			},
			SeqReqBytes: 256 << 10, RandReqBytes: 4096,
			SeqReadDepth: 1, RandReadDepth: 2, SeqWriteDepth: 1, RandWriteDepth: 4,
		},
	}
}

// BaseSSDConfig is the generic small flash device behind the "ssd" and
// "osd" base profiles (and the examples and benchmarks): 8 interleaved
// packages, 4 KB pages, SWTF dispatch, cleaning watermarks at 5%/2%.
func BaseSSDConfig() ssd.Config {
	return ssd.Config{
		Elements:      8,
		Geom:          geom(64),
		Overprovision: 0.10,
		Layout:        ssd.Interleaved,
		Scheduler:     sched.SWTF,
		CtrlOverhead:  10 * sim.Microsecond,
		GCLow:         0.05, GCCritical: 0.02,
	}
}

// init populates the registry: the Table 2 set, the extended Table 1
// classes, and a generic base profile per media kind so Open("ssd") and
// friends always resolve.
func init() {
	for _, p := range Profiles() {
		mustRegister(p)
	}
	var s4 ssd.Config
	for _, p := range Profiles() {
		if p.Name == "S4slc_sim" {
			s4 = p.SSD
		}
	}
	// The object front exists to carry allocation knowledge to the FTL
	// (§3.5): its device runs with informed cleaning on.
	s4.Informed = true
	mustRegister(Profile{
		Name:        "MEMS",
		Description: "MEMS storage (Schlosser & Ganger's G2)",
		Kind:        KindMEMS,
		MEMS:        DefaultMEMS(),
		SeqReqBytes: 1 << 20, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	})
	mustRegister(Profile{
		Name:        "RAID",
		Description: "RAID-5 array of five Barracuda-class spindles",
		Kind:        KindRAID,
		RAID:        DefaultRAID(),
		SeqReqBytes: 1 << 20, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	})
	mustRegister(Profile{
		Name:        "OSD",
		Description: "object-fronted S4-class SSD (block ops via the object store)",
		Kind:        KindOSD,
		SSD:         s4,
		SeqReqBytes: 4096, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 2, RandWriteDepth: 2,
	})
	// Generic per-kind bases: the starting point for option-built devices.
	mustRegister(Profile{
		Name:        "ssd",
		Description: "generic small SSD (base profile for option-built devices)",
		Kind:        KindSSD,
		SSD:         BaseSSDConfig(),
		SeqReqBytes: 1 << 20, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	})
	mustRegister(Profile{
		Name:        "hdd",
		Description: "generic Barracuda-class disk (base profile)",
		Kind:        KindHDD,
		HDD:         hdd.Barracuda7200(),
		SeqReqBytes: 1 << 20, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	})
	mustRegister(Profile{
		Name:        "mems",
		Description: "generic G2 MEMS device (base profile)",
		Kind:        KindMEMS,
		MEMS:        DefaultMEMS(),
		SeqReqBytes: 1 << 20, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	})
	mustRegister(Profile{
		Name:        "raid",
		Description: "generic five-spindle RAID-5 array (base profile)",
		Kind:        KindRAID,
		RAID:        DefaultRAID(),
		SeqReqBytes: 1 << 20, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	})
	osdBase := BaseSSDConfig()
	osdBase.Informed = true
	mustRegister(Profile{
		Name:        "osd",
		Description: "generic object-fronted SSD (base profile)",
		Kind:        KindOSD,
		SSD:         osdBase,
		SeqReqBytes: 4096, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 2, RandWriteDepth: 2,
	})
}
