// Package ftl implements a log-structured flash translation layer for one
// parallel element (flash package) of an SSD, following the design of
// Agrawal et al. (USENIX ATC 2008), the simulator substrate of the paper
// under reproduction: page-level logical-to-physical mapping, an
// append-only allocation log, greedy garbage collection, and
// wear-leveling. Two of the paper's proposals live here:
//
//   - Informed cleaning (§3.5): when enabled, file-system free
//     notifications invalidate mapping entries so the cleaner never copies
//     dead pages. The default FTL ignores frees, retaining "the most
//     recent version of all the logical pages, including those that have
//     been released" — exactly the paper's baseline.
//
//   - Cleaning watermarks (§3.6): the element exposes its free-page
//     fraction so the device layer can implement priority-aware cleaning
//     (clean at the low watermark only when no priority request is
//     outstanding; always clean at the critical watermark).
package ftl

import (
	"errors"
	"fmt"

	"ossd/internal/flash"
	"ossd/internal/sim"
)

// Config parameterizes one element's FTL.
type Config struct {
	// Geom and Timing describe the underlying flash package.
	Geom   flash.Geometry
	Timing flash.Timing
	// EraseBudget is the per-block endurance; zero selects the SLC default.
	EraseBudget int
	// Overprovision is the fraction of physical pages withheld from the
	// logical address space (spare area for cleaning). Typical: 0.1–0.15.
	Overprovision float64
	// Informed enables free-page knowledge: Free(lpn) invalidates the
	// mapping so cleaning skips dead pages.
	Informed bool
	// WearAware enables wear-leveling: erase counts break victim-selection
	// ties, and a cold-data migration fires when the erase-count spread
	// exceeds WearDelta.
	WearAware bool
	// CostBenefit selects cost-benefit victim selection (LFS/eNVy style:
	// maximize age*(1-u)/(1+u)) instead of pure greedy (most invalid
	// pages). Greedy is optimal under uniform traffic; cost-benefit wins
	// when hot and cold data mix, because it lets hot blocks accumulate
	// more garbage before paying to clean them.
	CostBenefit bool
	// WearDelta is the max tolerated erase-count spread (default 32).
	WearDelta int
	// WearCeiling retires a block instead of erasing it once its erase
	// count reaches this value; 0 disables retirement. A fault plan's
	// accelerated-lifetime knob: retired blocks leave the spare pool,
	// so cleaning intensifies and the element eventually hits its
	// wear-out cliff (ErrNoSpace).
	WearCeiling int
	// RemapCost is the extra latency charged per page relocated by a
	// retirement pass (the remap-table rebuild), plus one fixed unit
	// for the table update itself.
	RemapCost sim.Time
}

// Stats accumulates the cleaning and traffic counters reported in the
// paper's Table 5.
type Stats struct {
	// HostReads and HostWrites count logical page operations served.
	HostReads, HostWrites int64
	// PagesMoved counts valid pages copied by the cleaner.
	PagesMoved int64
	// Cleans counts cleaning passes (one victim block each).
	Cleans int64
	// CleanTime is the total time spent cleaning.
	CleanTime sim.Time
	// GCErases counts blocks erased by the cleaner.
	GCErases int64
	// FreesSeen counts free notifications received; FreesApplied counts
	// those that invalidated a live mapping (informed mode only).
	FreesSeen, FreesApplied int64
	// Migrations counts forced cold-data migrations (wear-leveling).
	Migrations int64
	// RetiredBlocks counts blocks retired at their wear ceiling;
	// RemappedPages counts the valid pages retirement passes relocated.
	RetiredBlocks, RemappedPages int64
}

// Page states tracked per physical page.
const (
	pageFree byte = iota
	pageValid
	pageInvalid
)

// Block states.
const (
	blockFree byte = iota
	blockActive
	blockUsed
	// blockRetired blocks hit their wear ceiling: permanently out of
	// circulation, never erased again, never picked as victims.
	blockRetired
)

// Errors returned by the element.
var (
	ErrNoSpace    = errors.New("ftl: no free space and nothing to clean")
	ErrOutOfRange = errors.New("ftl: logical page out of range")
)

const unmapped = int32(-1)

// Element is the FTL for one flash package. It is single-threaded by
// design: the device model serializes each element on the simulated clock.
type Element struct {
	cfg Config
	pkg *flash.Package

	ppb      int // pages per block
	physPage int // total physical pages
	logical  int // exported logical pages

	l2p       []int32 // logical -> physical page, unmapped if -1
	p2l       []int32 // physical -> logical page, unmapped if -1
	pageState []byte
	blkState  []byte
	validCnt  []int32 // per-block valid page count
	invalCnt  []int32 // per-block invalid page count

	freeBlocks []int
	active     int
	freePages  int
	// retiredPages counts pages stranded in retired blocks; they shrink
	// the live physical pool that FreeFraction is measured against.
	retiredPages int

	// opSeq is a logical clock (one tick per host write) used by
	// cost-benefit victim selection; blockTouch records each block's last
	// invalidation tick, so old garbage-heavy blocks look cheap.
	opSeq      int64
	blockTouch []int64

	stats Stats
}

// NewElement builds an element with a fully-erased package.
func NewElement(cfg Config) (*Element, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.Overprovision < 0 || cfg.Overprovision >= 0.9 {
		return nil, fmt.Errorf("ftl: overprovision %v out of range [0, 0.9)", cfg.Overprovision)
	}
	if cfg.EraseBudget == 0 {
		cfg.EraseBudget = flash.EraseBudgetFor(flash.SLC)
	}
	if cfg.WearDelta == 0 {
		cfg.WearDelta = 32
	}
	if cfg.Geom.BlocksPerPackage < 3 {
		return nil, fmt.Errorf("ftl: need at least 3 blocks, got %d", cfg.Geom.BlocksPerPackage)
	}
	pkg, err := flash.NewPackage(cfg.Geom, cfg.Timing, cfg.EraseBudget)
	if err != nil {
		return nil, err
	}
	phys := cfg.Geom.Pages()
	logical := int(float64(phys) * (1 - cfg.Overprovision))
	// Keep at least one block's worth of slack so cleaning always has a
	// destination.
	if max := phys - 2*cfg.Geom.PagesPerBlock; logical > max {
		logical = max
	}
	if logical <= 0 {
		return nil, fmt.Errorf("ftl: geometry too small for overprovisioning")
	}
	el := &Element{
		cfg:        cfg,
		pkg:        pkg,
		ppb:        cfg.Geom.PagesPerBlock,
		physPage:   phys,
		logical:    logical,
		l2p:        make([]int32, logical),
		p2l:        make([]int32, phys),
		pageState:  make([]byte, phys),
		blkState:   make([]byte, cfg.Geom.BlocksPerPackage),
		validCnt:   make([]int32, cfg.Geom.BlocksPerPackage),
		invalCnt:   make([]int32, cfg.Geom.BlocksPerPackage),
		blockTouch: make([]int64, cfg.Geom.BlocksPerPackage),
		freePages:  phys,
	}
	fillUnmapped(el.l2p)
	fillUnmapped(el.p2l)
	for b := cfg.Geom.BlocksPerPackage - 1; b >= 1; b-- {
		el.freeBlocks = append(el.freeBlocks, b)
	}
	el.active = 0
	el.blkState[0] = blockActive
	return el, nil
}

// fillUnmapped sets every entry of m to unmapped by doubling copies.
// Device construction is dominated by these fills, and copy's memmove
// runs at the same speed wherever the linker places this code, while a
// scalar store loop here ran up to 1.6x slower after unrelated code
// moved it. m must be non-empty.
func fillUnmapped(m []int32) {
	m[0] = unmapped
	for n := 1; n < len(m); n *= 2 {
		copy(m[n:], m[:n])
	}
}

// LogicalPages reports the exported logical capacity in pages.
func (el *Element) LogicalPages() int { return el.logical }

// PhysicalPages reports the raw capacity in pages.
func (el *Element) PhysicalPages() int { return el.physPage }

// PageSize reports the page size in bytes.
func (el *Element) PageSize() int { return el.cfg.Geom.PageSize }

// FreeFraction reports free (erased, unwritten) pages as a fraction of
// the live physical pages (retired blocks no longer count). The device
// layer compares this against its cleaning watermarks.
func (el *Element) FreeFraction() float64 {
	live := el.physPage - el.retiredPages
	if live <= 0 {
		return 0
	}
	return float64(el.freePages) / float64(live)
}

// FreePages reports the count of erased, writable pages.
func (el *Element) FreePages() int { return el.freePages }

// Mapped reports whether a logical page currently has a physical copy.
func (el *Element) Mapped(lpn int) bool {
	return lpn >= 0 && lpn < el.logical && el.l2p[lpn] != unmapped
}

// Stats returns a copy of the accumulated counters.
func (el *Element) Stats() Stats { return el.stats }

// Wear returns the wear summary of the underlying package.
func (el *Element) Wear() flash.WearStats { return el.pkg.Wear() }

// Package exposes the underlying flash package for inspection in tests
// and ablation benches.
func (el *Element) Package() *flash.Package { return el.pkg }

func (el *Element) ppn(block, page int) int32 { return int32(block*el.ppb + page) }

// invalidate marks a physical page dead and unlinks it from its logical
// page.
func (el *Element) invalidate(ppn int32) {
	if el.pageState[ppn] != pageValid {
		panic(fmt.Sprintf("ftl: invalidating page %d in state %d", ppn, el.pageState[ppn]))
	}
	el.pageState[ppn] = pageInvalid
	b := int(ppn) / el.ppb
	el.validCnt[b]--
	el.invalCnt[b]++
	el.blockTouch[b] = el.opSeq
	el.p2l[ppn] = unmapped
}

// advanceActive makes room for one more program in the active block,
// pulling a fresh block from the free list when the current one is full.
// Returns an error only when the free list is exhausted, which the
// cleaning invariants should make impossible.
func (el *Element) advanceActive() error {
	if el.pkg.WritePointer(el.active) < el.ppb {
		return nil
	}
	if len(el.freeBlocks) == 0 {
		return ErrNoSpace
	}
	// FIFO reuse rotates allocation across the whole free pool; LIFO would
	// concentrate wear on recently-erased blocks and strand the rest.
	el.blkState[el.active] = blockUsed
	el.active = el.freeBlocks[0]
	el.freeBlocks = el.freeBlocks[1:]
	el.blkState[el.active] = blockActive
	return nil
}

// appendPage programs the next page of the log and returns its physical
// page number and service time.
func (el *Element) appendPage() (int32, sim.Time, error) {
	if err := el.advanceActive(); err != nil {
		return 0, 0, err
	}
	page := el.pkg.WritePointer(el.active)
	d, err := el.pkg.ProgramPage(el.active, page)
	if err != nil {
		return 0, 0, err
	}
	el.freePages--
	return el.ppn(el.active, page), d, nil
}

// WritePage services a host write of one logical page: append to the log,
// remap, invalidate the prior copy. If the element is completely out of
// log space it cleans synchronously first (a safety valve; the device
// layer normally cleans at its watermarks before this point). The
// returned duration includes any such forced cleaning.
func (el *Element) WritePage(lpn int) (sim.Time, error) {
	if lpn < 0 || lpn >= el.logical {
		return 0, fmt.Errorf("%w: lpn %d of %d", ErrOutOfRange, lpn, el.logical)
	}
	var total sim.Time
	// Forced cleaning: keep two blocks of slack. A cleaning pass moves at
	// most PagesPerBlock-1 pages, and any free page outside the active
	// block implies a whole free block (non-active blocks are either full
	// or erased), so this bound guarantees relocation always has a
	// destination.
	for el.freePages <= 2*el.ppb && el.canClean() {
		d, err := el.CleanOnce()
		if err != nil {
			return total, err
		}
		total += d
	}
	ppn, d, err := el.appendPage()
	if err != nil {
		return total, err
	}
	total += d
	el.opSeq++
	if old := el.l2p[lpn]; old != unmapped {
		el.invalidate(old)
	}
	el.l2p[lpn] = ppn
	el.p2l[ppn] = int32(lpn)
	el.pageState[ppn] = pageValid
	el.validCnt[int(ppn)/el.ppb]++
	el.stats.HostWrites++
	return total, nil
}

// ReadPage services a host read of one logical page. Reading a page that
// was never written (or was freed) costs only the bus transfer: the
// controller synthesizes zeros without touching the medium.
func (el *Element) ReadPage(lpn int) (sim.Time, error) {
	if lpn < 0 || lpn >= el.logical {
		return 0, fmt.Errorf("%w: lpn %d of %d", ErrOutOfRange, lpn, el.logical)
	}
	el.stats.HostReads++
	ppn := el.l2p[lpn]
	if ppn == unmapped {
		return sim.Time(el.cfg.Geom.PageSize) * el.cfg.Timing.BusPerByte, nil
	}
	return el.pkg.ReadPage(int(ppn)/el.ppb, int(ppn)%el.ppb)
}

// Free is the file-system deallocation notification for one logical page.
// In informed mode it invalidates the mapping, so cleaning will not copy
// the page; otherwise it is deliberately ignored (the paper's default
// device, which cannot see allocation status).
func (el *Element) Free(lpn int) error {
	if lpn < 0 || lpn >= el.logical {
		return fmt.Errorf("%w: lpn %d of %d", ErrOutOfRange, lpn, el.logical)
	}
	el.stats.FreesSeen++
	if !el.cfg.Informed {
		return nil
	}
	if ppn := el.l2p[lpn]; ppn != unmapped {
		el.invalidate(ppn)
		el.l2p[lpn] = unmapped
		el.stats.FreesApplied++
	}
	return nil
}

// CanClean reports whether a cleaning pass could reclaim anything: some
// used block holds at least one invalid page. The device layer checks
// this before starting background cleaning so a fragmentation-free
// element does not spin.
func (el *Element) CanClean() bool { return el.canClean() }

// canClean reports whether a cleaning pass could reclaim anything.
func (el *Element) canClean() bool {
	for b, st := range el.blkState {
		if st == blockUsed && el.invalCnt[b] > 0 {
			return true
		}
	}
	return false
}

// pickVictim selects the cleaning victim. Greedy takes the used block
// with the most invalid pages; cost-benefit maximizes age*(1-u)/(1+u),
// where u is the block's valid fraction and age the ticks since it last
// gained garbage. With WearAware set, erase counts break greedy ties so
// lightly-worn blocks are recycled first.
func (el *Element) pickVictim() int {
	if el.cfg.CostBenefit {
		return el.pickVictimCostBenefit()
	}
	best := -1
	var bestInval int32 = -1
	bestErase := 0
	for b, st := range el.blkState {
		if st != blockUsed {
			continue
		}
		inv := el.invalCnt[b]
		if inv == 0 {
			continue
		}
		e := el.pkg.EraseCount(b)
		if inv > bestInval || (inv == bestInval && el.cfg.WearAware && e < bestErase) {
			best, bestInval, bestErase = b, inv, e
		}
	}
	return best
}

func (el *Element) pickVictimCostBenefit() int {
	best := -1
	bestScore := -1.0
	for b, st := range el.blkState {
		if st != blockUsed || el.invalCnt[b] == 0 {
			continue
		}
		u := float64(el.validCnt[b]) / float64(el.ppb)
		age := float64(el.opSeq - el.blockTouch[b] + 1)
		score := age * (1 - u) / (1 + u)
		if score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// relocate copies one valid physical page to the log tail, preserving the
// logical mapping, and returns the time spent.
func (el *Element) relocate(ppn int32) (sim.Time, error) {
	lpn := el.p2l[ppn]
	if lpn == unmapped || el.pageState[ppn] != pageValid {
		panic("ftl: relocating a non-valid page")
	}
	rd, err := el.pkg.ReadPage(int(ppn)/el.ppb, int(ppn)%el.ppb)
	if err != nil {
		return 0, err
	}
	dst, wd, err := el.appendPage()
	if err != nil {
		return rd, err
	}
	el.invalidate(ppn)
	el.l2p[lpn] = dst
	el.p2l[dst] = lpn
	el.pageState[dst] = pageValid
	el.validCnt[int(dst)/el.ppb]++
	el.stats.PagesMoved++
	return rd + wd, nil
}

// reclaim moves every valid page out of block b, then either erases it
// back into the free pool or — when a wear ceiling is configured and the
// block has reached it — retires it instead, permanently shrinking the
// spare area.
func (el *Element) reclaim(b int) (sim.Time, error) {
	var total sim.Time
	base := int32(b * el.ppb)
	moved := 0
	for p := int32(0); p < int32(el.ppb); p++ {
		if el.pageState[base+p] == pageValid {
			d, err := el.relocate(base + p)
			total += d
			if err != nil {
				return total, err
			}
			moved++
		}
	}
	if el.validCnt[b] != 0 {
		panic(fmt.Sprintf("ftl: block %d still has %d valid pages after relocation", b, el.validCnt[b]))
	}
	if el.cfg.WearCeiling > 0 && el.pkg.EraseCount(b) >= el.cfg.WearCeiling {
		return total + el.retire(b, moved), nil
	}
	reclaimed := el.pkg.WritePointer(b) // programmed pages become free again
	d, err := el.pkg.EraseBlock(b)
	total += d
	if err != nil {
		return total, err
	}
	for p := int32(0); p < int32(el.ppb); p++ {
		el.pageState[base+p] = pageFree
		el.p2l[base+p] = unmapped
	}
	el.freePages += reclaimed
	el.invalCnt[b] = 0
	el.blkState[b] = blockFree
	el.freeBlocks = append(el.freeBlocks, b)
	el.stats.GCErases++
	return total, nil
}

// retire pulls block b out of circulation at its wear ceiling: the block
// keeps its (all-invalid) contents, its pages leave the live pool, and
// the remap-table rebuild charges RemapCost per relocated page plus one
// fixed unit. moved is the number of valid pages the preceding
// relocation loop copied out.
func (el *Element) retire(b int, moved int) sim.Time {
	// Unprogrammed pages in the retired block were counted free; they
	// are stranded now. (Cleaning victims are always full, so this is
	// zero in practice.)
	el.freePages -= el.ppb - el.pkg.WritePointer(b)
	el.retiredPages += el.ppb
	el.blkState[b] = blockRetired
	el.stats.RetiredBlocks++
	el.stats.RemappedPages += int64(moved)
	_ = el.pkg.RetireBlock(b)
	// The caller (CleanOnce or a migration pass) folds this duration
	// into CleanTime along with the relocation traffic.
	return el.cfg.RemapCost * sim.Time(moved+1)
}

// CleanOnce performs one cleaning pass: pick a victim, relocate its valid
// pages, erase it. With wear-leveling enabled, a pass may instead migrate
// the coldest block when the wear spread exceeds the configured delta.
// Returns the total medium time consumed, which the device layer charges
// to the element's timeline.
func (el *Element) CleanOnce() (sim.Time, error) {
	var total sim.Time
	if el.cfg.WearAware {
		if d, did, err := el.maybeMigrate(); did {
			total += d
			if err != nil {
				return total, err
			}
		}
	}
	v := el.pickVictim()
	if v == -1 {
		if total > 0 {
			// The migration pass freed a block; that is progress.
			return total, nil
		}
		return 0, ErrNoSpace
	}
	d, err := el.reclaim(v)
	total += d
	if err != nil {
		return total, err
	}
	el.stats.Cleans++
	el.stats.CleanTime += total
	return total, nil
}

// maybeMigrate performs dual-pool cold-data migration when wear is
// skewed. The least-worn used block holds the coldest data (it has not
// been recycled since it was written); its contents are copied verbatim
// into the most-worn *free* block, which retires that worn block from
// circulation, and the cold block re-enters the allocation pool to absorb
// hot traffic. Copying into the shared log would not level anything: the
// cold pages would simply re-segregate.
func (el *Element) maybeMigrate() (sim.Time, bool, error) {
	ws := el.pkg.Wear()
	if ws.Max-ws.Min <= el.cfg.WearDelta {
		return 0, false, nil
	}
	coldest := -1
	coldErase := 0
	for b, st := range el.blkState {
		if st != blockUsed {
			continue
		}
		// Swap migration needs a fully-valid source so the destination
		// block is exactly filled; partially-valid cold blocks are left to
		// the greedy cleaner.
		if el.validCnt[b] != int32(el.ppb) {
			continue
		}
		e := el.pkg.EraseCount(b)
		if coldest == -1 || e < coldErase {
			coldest, coldErase = b, e
		}
	}
	// Only migrate a block that is genuinely lagging the wear curve.
	if coldest == -1 || coldErase > ws.Min+el.cfg.WearDelta/2 {
		return 0, false, nil
	}
	// Destination: the most-worn free block (excluding the active block).
	if len(el.freeBlocks) < 2 {
		return 0, false, nil
	}
	dstIdx := 0
	for i, b := range el.freeBlocks {
		if el.pkg.EraseCount(b) > el.pkg.EraseCount(el.freeBlocks[dstIdx]) {
			dstIdx = i
		}
	}
	dst := el.freeBlocks[dstIdx]
	// Migrating onto an equally-cold block would be pure churn.
	if el.pkg.EraseCount(dst) <= coldErase {
		return 0, false, nil
	}
	el.freeBlocks = append(el.freeBlocks[:dstIdx], el.freeBlocks[dstIdx+1:]...)
	el.blkState[dst] = blockUsed
	var total sim.Time
	base := int32(coldest * el.ppb)
	for p := int32(0); p < int32(el.ppb); p++ {
		src := base + p
		lpn := el.p2l[src]
		rd, err := el.pkg.ReadPage(coldest, int(p))
		total += rd
		if err != nil {
			return total, true, err
		}
		wd, err := el.pkg.ProgramPage(dst, int(p))
		total += wd
		if err != nil {
			return total, true, err
		}
		el.freePages--
		newPPN := el.ppn(dst, int(p))
		el.invalidate(src)
		el.l2p[lpn] = newPPN
		el.p2l[newPPN] = lpn
		el.pageState[newPPN] = pageValid
		el.validCnt[dst]++
		el.stats.PagesMoved++
	}
	d, err := el.reclaim(coldest)
	total += d
	if err != nil {
		return total, true, err
	}
	el.stats.Migrations++
	// CleanTime is charged by CleanOnce, which folds this duration into
	// its own total.
	return total, true, nil
}

// CheckInvariants validates internal consistency; tests call it after
// randomized operation sequences. It returns a descriptive error on the
// first violation found.
func (el *Element) CheckInvariants() error {
	free := 0
	for b := 0; b < el.cfg.Geom.BlocksPerPackage; b++ {
		var valid, invalid int32
		base := b * el.ppb
		wp := el.pkg.WritePointer(b)
		for p := 0; p < el.ppb; p++ {
			switch el.pageState[base+p] {
			case pageValid:
				valid++
				lpn := el.p2l[base+p]
				if lpn == unmapped || el.l2p[lpn] != int32(base+p) {
					return fmt.Errorf("block %d page %d: broken l2p/p2l link", b, p)
				}
				if p >= wp {
					return fmt.Errorf("block %d page %d valid but beyond write pointer %d", b, p, wp)
				}
			case pageInvalid:
				invalid++
				if p >= wp {
					return fmt.Errorf("block %d page %d invalid but beyond write pointer %d", b, p, wp)
				}
			case pageFree:
				if el.blkState[b] != blockRetired {
					free++
				}
				if p < wp {
					return fmt.Errorf("block %d page %d free but below write pointer %d", b, p, wp)
				}
			}
		}
		if valid != el.validCnt[b] || invalid != el.invalCnt[b] {
			return fmt.Errorf("block %d: counts valid %d/%d invalid %d/%d", b, valid, el.validCnt[b], invalid, el.invalCnt[b])
		}
		if el.blkState[b] == blockFree && wp != 0 {
			return fmt.Errorf("free block %d has write pointer %d", b, wp)
		}
		if el.blkState[b] == blockRetired && valid != 0 {
			return fmt.Errorf("retired block %d still holds %d valid pages", b, valid)
		}
	}
	if free != el.freePages {
		return fmt.Errorf("freePages %d, counted %d", el.freePages, free)
	}
	mapped := 0
	for lpn, ppn := range el.l2p {
		if ppn == unmapped {
			continue
		}
		mapped++
		if el.p2l[ppn] != int32(lpn) {
			return fmt.Errorf("lpn %d: p2l mismatch", lpn)
		}
	}
	return nil
}
