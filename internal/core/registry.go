package core

import (
	"fmt"
	"sort"
	"sync"

	"ossd/internal/fault"
	"ossd/internal/ftl"
	"ossd/internal/hdd"
	"ossd/internal/mems"
	"ossd/internal/raid"
	"ossd/internal/sched"
	"ossd/internal/ssd"
)

// The device registry maps profile names to Profiles, so every substrate
// is constructed through one door: Open(name, opts...). The built-in
// entries are the Table 2 device set, the extended Table 1 classes
// (MEMS, RAID, OSD), and one generic base profile per media kind
// ("ssd", "hdd", "mems", "raid", "osd"); Register adds more.
var registry = struct {
	sync.RWMutex
	order  []string
	byName map[string]Profile
}{byName: map[string]Profile{}}

// Register adds a named profile to the registry. Registering a name
// twice is an error: profiles are identities, not settings.
func Register(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("core: profile needs a name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[p.Name]; dup {
		return fmt.Errorf("core: profile %q already registered", p.Name)
	}
	registry.order = append(registry.order, p.Name)
	registry.byName[p.Name] = p
	return nil
}

// mustRegister is Register for the built-in set.
func mustRegister(p Profile) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// ProfileByName looks a profile up in the registry.
func ProfileByName(name string) (Profile, error) {
	registry.RLock()
	defer registry.RUnlock()
	p, ok := registry.byName[name]
	if !ok {
		names := make([]string, len(registry.order))
		copy(names, registry.order)
		sort.Strings(names)
		return Profile{}, fmt.Errorf("core: unknown profile %q (have %v)", name, names)
	}
	return p, nil
}

// ProfileNames returns every registered profile name, sorted — the
// enumeration API behind ssdsim -list and the service's GET /profiles.
func ProfileNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, len(registry.order))
	copy(names, registry.order)
	sort.Strings(names)
	return names
}

// ExtendedProfiles returns every registered profile in registration
// order: the Table 2 set, the other Table 1 device classes (MEMS, RAID),
// the object-fronted SSD, the generic per-kind base profiles, and
// anything added with Register. Table 2 itself keeps using Profiles():
// the paper characterizes only the disk and the SSDs there.
func ExtendedProfiles() []Profile {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Profile, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// Option is a functional option applied to a Profile before its device
// is built: the one mechanism for customizing any substrate through the
// registry.
type Option func(*Profile) error

// Open builds the named profile's device with the options applied — the
// single constructor replacing the per-substrate NewSSD/NewHDD/NewMEMS/
// NewRAID/NewOSD call sites.
func Open(name string, opts ...Option) (Device, error) {
	p, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return Build(p, opts...)
}

// Build constructs a device from an explicit profile (registered or
// ad hoc) with the options applied. The profile is copied; options never
// mutate the registry.
func Build(p Profile, opts ...Option) (Device, error) {
	for _, opt := range opts {
		if err := opt(&p); err != nil {
			return nil, err
		}
	}
	return p.NewDevice()
}

// WithCapacity scales the device to approximately bytes of logical
// capacity, rounded to the media's natural granularity (flash geometry,
// RAID stripes).
func WithCapacity(bytes int64) Option {
	return func(p *Profile) error {
		if bytes <= 0 {
			return fmt.Errorf("core: capacity %d must be positive", bytes)
		}
		switch p.Kind {
		case KindHDD:
			p.HDD.CapacityBytes = bytes
		case KindMEMS:
			p.MEMS.CapacityBytes = bytes
		case KindRAID:
			if p.RAID.Disks < 3 {
				return fmt.Errorf("core: raid profile incomplete")
			}
			p.RAID.Disk.CapacityBytes = bytes / int64(p.RAID.Disks-1)
		default: // SSD and OSD share the flash config.
			g := p.SSD.Geom
			perBlock := int64(g.PageSize) * int64(g.PagesPerBlock)
			if p.SSD.Elements <= 0 || perBlock <= 0 {
				return fmt.Errorf("core: ssd profile incomplete")
			}
			spare := 1 - p.SSD.Overprovision
			if spare <= 0 {
				return fmt.Errorf("core: overprovision %v leaves no capacity", p.SSD.Overprovision)
			}
			raw := int64(float64(bytes) / spare)
			blocks := (raw + int64(p.SSD.Elements)*perBlock - 1) / (int64(p.SSD.Elements) * perBlock)
			if blocks < 4 {
				blocks = 4
			}
			p.SSD.Geom.BlocksPerPackage = int(blocks)
		}
		return nil
	}
}

// WithQueueDepth sets the profile's benchmark queue depth for all four
// measurement classes.
func WithQueueDepth(depth int) Option {
	return func(p *Profile) error {
		if depth <= 0 {
			return fmt.Errorf("core: queue depth %d must be positive", depth)
		}
		p.SeqReadDepth, p.RandReadDepth = depth, depth
		p.SeqWriteDepth, p.RandWriteDepth = depth, depth
		return nil
	}
}

// WithMaxPending bounds the number of requests outstanding while the
// device is driven open loop (Drive): once n requests are in
// flight, further arrivals are paced to completions instead of piling
// unbounded queue state — backpressure for arrival storms the device
// cannot absorb. It applies to every media kind; 0 restores the
// unbounded default.
func WithMaxPending(n int) Option {
	return func(p *Profile) error {
		if n < 0 {
			return fmt.Errorf("core: max pending %d must be non-negative", n)
		}
		p.MaxPending = n
		return nil
	}
}

// WithFault attaches a fault plan (see internal/fault) to the profile:
// deterministic transient errors, element deaths, wear ceilings, and
// power-loss points. It applies to every media kind — flash devices
// inject per-element inside their dispatch path, other media are wrapped
// by the generic per-op injector. nil restores the process default
// (SetDefaultFault).
func WithFault(plan *fault.Plan) Option {
	return func(p *Profile) error {
		if err := plan.Validate(); err != nil {
			return err
		}
		p.Fault = plan
		return nil
	}
}

// WithSeed sets the profile's default measurement seed. The seed is
// metadata carried on the Profile for callers that read it back via
// ProfileByName (no built-in profile sets one; the devices themselves
// are deterministic and take no seed).
func WithSeed(seed int64) Option {
	return func(p *Profile) error {
		p.Seed = seed
		return nil
	}
}

// WithScheme selects the FTL mapping scheme (page, block, hybrid) on
// flash-backed profiles.
func WithScheme(s ftl.Scheme) Option {
	return func(p *Profile) error {
		if err := needFlash(p, "scheme"); err != nil {
			return err
		}
		p.SSD.Scheme = s
		return nil
	}
}

// WithStripe configures striping: on flash-backed profiles it selects
// the full-stripe layout with the given logical page size; on RAID it
// sets the per-disk stripe unit.
func WithStripe(bytes int64) Option {
	return func(p *Profile) error {
		if bytes <= 0 {
			return fmt.Errorf("core: stripe %d must be positive", bytes)
		}
		switch p.Kind {
		case KindRAID:
			p.RAID.StripeUnitBytes = bytes
		case KindHDD, KindMEMS:
			return fmt.Errorf("core: %s profiles have no stripe", p.Kind)
		default:
			p.SSD.Layout = ssd.FullStripe
			p.SSD.StripeBytes = bytes
		}
		return nil
	}
}

// WithScheduler selects the dispatch policy (FCFS, SWTF) on flash-backed
// profiles.
func WithScheduler(policy sched.Policy) Option {
	return func(p *Profile) error {
		if err := needFlash(p, "scheduler"); err != nil {
			return err
		}
		p.SSD.Scheduler = policy
		return nil
	}
}

// WithTenantWeights engages weighted fair-share dispatch on flash-backed
// profiles: the device queue deficit-round-robins across tenant classes
// with the given scheduler weights (tenants absent from the map weigh 1).
// An empty or nil map restores legacy single-tenant dispatch.
func WithTenantWeights(weights map[uint8]float64) Option {
	return func(p *Profile) error {
		if err := needFlash(p, "tenant weights"); err != nil {
			return err
		}
		for t, w := range weights {
			if w <= 0 {
				return fmt.Errorf("core: tenant %d weight %v must be positive", t, w)
			}
		}
		if len(weights) == 0 {
			p.SSD.TenantWeights = nil
			return nil
		}
		m := make(map[uint8]float64, len(weights))
		for t, w := range weights {
			m[t] = w
		}
		p.SSD.TenantWeights = m
		return nil
	}
}

// WithInformed toggles informed cleaning (§3.5 free-page knowledge) on
// flash-backed profiles.
func WithInformed(on bool) Option {
	return func(p *Profile) error {
		if err := needFlash(p, "informed cleaning"); err != nil {
			return err
		}
		p.SSD.Informed = on
		return nil
	}
}

// WithPriorityAware toggles priority-aware cleaning (§3.6) on
// flash-backed profiles.
func WithPriorityAware(on bool) Option {
	return func(p *Profile) error {
		if err := needFlash(p, "priority-aware cleaning"); err != nil {
			return err
		}
		p.SSD.PriorityAware = on
		return nil
	}
}

// WithSSD replaces the flash configuration wholesale (for callers that
// already hold an ssd.Config, e.g. a copied-and-tweaked profile).
func WithSSD(cfg ssd.Config) Option {
	return func(p *Profile) error {
		if err := needFlash(p, "ssd config"); err != nil {
			return err
		}
		p.SSD = cfg
		return nil
	}
}

// WithHDD replaces the disk configuration wholesale.
func WithHDD(cfg hdd.Config) Option {
	return func(p *Profile) error {
		if p.Kind != KindHDD {
			return fmt.Errorf("core: hdd config on %s profile", p.Kind)
		}
		p.HDD = cfg
		return nil
	}
}

// WithMEMS replaces the MEMS configuration wholesale.
func WithMEMS(cfg mems.Config) Option {
	return func(p *Profile) error {
		if p.Kind != KindMEMS {
			return fmt.Errorf("core: mems config on %s profile", p.Kind)
		}
		p.MEMS = cfg
		return nil
	}
}

// WithRAID replaces the array configuration wholesale.
func WithRAID(cfg raid.Config) Option {
	return func(p *Profile) error {
		if p.Kind != KindRAID {
			return fmt.Errorf("core: raid config on %s profile", p.Kind)
		}
		p.RAID = cfg
		return nil
	}
}

// needFlash guards SSD-only options: SSD and OSD profiles share the
// flash config; other media reject the option loudly instead of
// silently ignoring it.
func needFlash(p *Profile, what string) error {
	if p.Kind != KindSSD && p.Kind != KindOSD {
		return fmt.Errorf("core: %s option on %s profile", what, p.Kind)
	}
	return nil
}
