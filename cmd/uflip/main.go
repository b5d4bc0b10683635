// Command uflip runs a uFLIP-style microbenchmark battery (Bouganim,
// Jónsson, Bonnet — CIDR '09, the paper's reference [4]) against a device
// profile: request-size sweeps, alignment sweeps, working-set locality,
// and read/write mixes. Each probe isolates one flash-behaviour pattern —
// granularity effects, stripe alignment, garbage-collection pressure.
//
//	uflip -profile S2slc
//	uflip -profile S4slc_sim -probe locality
package main

import (
	"flag"
	"fmt"
	"os"

	"ossd/internal/core"
	"ossd/internal/sim"
	"ossd/internal/stats"
	"ossd/internal/trace"
)

func main() {
	var (
		profile = flag.String("profile", "S4slc_sim", "device profile (see ssdsim -list)")
		probe   = flag.String("probe", "all", "granularity|alignment|locality|mix|all")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "uflip:", err)
		os.Exit(1)
	}
	p, err := core.ProfileByName(*profile)
	if err != nil {
		fail(err)
	}
	fmt.Printf("uFLIP-style probes on %s (%s)\n\n", p.Name, p.Description)

	probes := map[string]func(core.Profile, int64) error{
		"granularity": granularity,
		"alignment":   alignment,
		"locality":    locality,
		"mix":         mix,
	}
	order := []string{"granularity", "alignment", "locality", "mix"}
	if *probe != "all" {
		if _, ok := probes[*probe]; !ok {
			fail(fmt.Errorf("unknown probe %q", *probe))
		}
		order = []string{*probe}
	}
	for _, name := range order {
		if err := probes[name](p, *seed); err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
	}
}

// fresh builds a preconditioned device through the registry.
func fresh(p core.Profile) (core.Device, error) {
	d, err := core.Open(p.Name)
	if err != nil {
		return nil, err
	}
	return d, core.PreconditionFrac(d, 1<<20, 0.7)
}

// granularity sweeps request sizes for all four pattern/kind combinations.
func granularity(p core.Profile, seed int64) error {
	t := stats.NewTable("Probe: granularity (MB/s by request size)",
		"Size", "SeqRead", "RandRead", "SeqWrite", "RandWrite")
	for _, size := range []int64{4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		row := []any{fmt.Sprintf("%dKiB", size>>10)}
		for _, tc := range []struct {
			kind    trace.Kind
			pattern core.Pattern
		}{
			{trace.Read, core.Sequential}, {trace.Read, core.Random},
			{trace.Write, core.Sequential}, {trace.Write, core.Random},
		} {
			d, err := fresh(p)
			if err != nil {
				return err
			}
			bw, err := core.MeasureBandwidth(d, core.BWOptions{
				Kind: tc.kind, Pattern: tc.pattern,
				ReqBytes: size, TotalBytes: 8 << 20, Depth: 1, Seed: seed,
			})
			if err != nil {
				return err
			}
			row = append(row, bw)
		}
		t.AddRow(row...)
	}
	fmt.Println(t.String())
	return nil
}

// alignment writes one logical page (the device's stripe) at shifted
// offsets: aligned writes replace the stripe in place; shifted ones
// straddle two stripes and pay read-modify-write on both.
func alignment(p core.Profile, seed int64) error {
	if p.Kind != core.KindSSD {
		return fmt.Errorf("alignment probe needs an SSD profile")
	}
	stripe := p.SSD.StripeBytes
	if stripe == 0 {
		stripe = int64(p.SSD.Geom.PageSize) // interleaved: page granularity
	}
	t := stats.NewTable(
		fmt.Sprintf("Probe: alignment (stripe-sized %d KiB writes, mean ms by shift)", stripe>>10),
		"Shift", "Mean(ms)")
	for _, frac := range []int64{0, 8, 4, 2} {
		shift := int64(0)
		if frac > 0 {
			shift = stripe / frac
		}
		d, err := fresh(p)
		if err != nil {
			return err
		}
		sd := d.(*core.SSD)
		n := 128
		period := 2 * stripe
		slots := d.LogicalBytes()/period - 1
		rng := sim.NewRNG(seed)
		i := 0
		if err := sd.ClosedLoop(1, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			base := rng.Int63n(slots) * period
			return trace.Op{Kind: trace.Write, Offset: base + shift, Size: stripe}, true
		}); err != nil {
			return err
		}
		m := sd.Raw.Metrics()
		t.AddRow(fmt.Sprintf("+%d/%dKiB", shift>>10, stripe>>10), m.WriteResp.Mean())
	}
	fmt.Println(t.String())
	return nil
}

// locality confines random writes to shrinking working sets: small hot
// sets recycle blocks quickly (cheap cleaning), whole-device churn
// scatters invalidations (expensive cleaning).
func locality(p core.Profile, seed int64) error {
	t := stats.NewTable("Probe: locality (random-write MB/s by working-set fraction)",
		"WorkingSet", "MB/s", "PagesMoved")
	for _, frac := range []float64{0.05, 0.25, 0.50, 1.0} {
		d, err := core.Open(p.Name)
		if err != nil {
			return err
		}
		// Two passes to 90%: cleaning is active from the start, so the
		// locality effect on garbage collection is visible.
		for pass := 0; pass < 2; pass++ {
			if err := core.PreconditionFrac(d, 1<<20, 0.9); err != nil {
				return err
			}
		}
		space := int64(float64(d.LogicalBytes()) * 0.9 * frac)
		if space < 1<<20 {
			space = 1 << 20
		}
		rng := sim.NewRNG(seed)
		// Enough churn to reach the random-overwrite steady state, where
		// the working-set size governs how full GC victims are.
		total := int64(64 << 20)
		n := int(total / 4096)
		i := 0
		start := d.Engine().Now()
		if err := d.ClosedLoop(4, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			return trace.Op{Kind: trace.Write, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}, true
		}); err != nil {
			return err
		}
		bw := stats.Bandwidth(total, (d.Engine().Now() - start).Seconds())
		moved := int64(0)
		if sd, ok := d.(*core.SSD); ok {
			moved = sd.Raw.GCStats().PagesMoved
		}
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100), bw, moved)
	}
	fmt.Println(t.String())
	return nil
}

// mix sweeps the read fraction of a random 4 KB workload, measuring the
// per-class response (writes slow down as their share — and cleaning
// pressure — grows).
func mix(p core.Profile, seed int64) error {
	t := stats.NewTable("Probe: read/write mix (random 4 KiB, per-class mean ms)",
		"Reads", "Read(ms)", "Write(ms)")
	for _, rf := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		d, err := fresh(p)
		if err != nil {
			return err
		}
		rng := sim.NewRNG(seed)
		space := int64(float64(d.LogicalBytes()) * 0.7)
		n := 2000
		i := 0
		if err := d.ClosedLoop(1, func(int) (trace.Op, bool) {
			if i >= n {
				return trace.Op{}, false
			}
			i++
			kind := trace.Write
			if rng.Bool(rf) {
				kind = trace.Read
			}
			op := trace.Op{Kind: kind, Offset: rng.Int63n(space/4096) * 4096, Size: 4096}
			return op, true
		}); err != nil {
			return err
		}
		// Per-class means over the probe window only, via SSD metrics
		// when available (HDD profiles report cumulative means).
		if sd, ok := d.(*core.SSD); ok {
			m := sd.Raw.Metrics()
			t.AddRow(fmt.Sprintf("%.0f%%", rf*100), m.ReadResp.Mean(), m.WriteResp.Mean())
		} else {
			m := d.Metrics()
			rms, wms := m.MeanReadMs, m.MeanWriteMs
			t.AddRow(fmt.Sprintf("%.0f%%", rf*100), rms, wms)
		}
	}
	fmt.Println(t.String())
	return nil
}
