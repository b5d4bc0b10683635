// Command ssdsim runs a workload against a simulated device and prints
// performance and cleaning statistics. Devices come from the registry's
// named profiles (see -list); the workload is a trace file (from
// tracegen, streamed from disk — never loaded whole) or a built-in
// synthetic stream.
//
//	ssdsim -profile S4slc_sim -trace pm.trace -limit 100000
//	ssdsim -profile S2slc -ops 20000 -readfrac 0.5 -align
//	ssdsim -profile hdd -workload postmark -tx 5000
//	ssdsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ossd/internal/core"
	"ossd/internal/fault"
	"ossd/internal/ftl"
	"ossd/internal/sim"
	"ossd/internal/ssd"
	"ossd/internal/stats"
	"ossd/internal/trace"
	"ossd/internal/workload"
)

func main() {
	var (
		profile  = flag.String("profile", "S4slc_sim", "device profile name")
		list     = flag.Bool("list", false, "list device profiles and exit")
		traceIn  = flag.String("trace", "", "trace file to replay (default: generated workload)")
		wl       = flag.String("workload", "synthetic", strings.Join(workload.Generators(), "|"))
		ops      = flag.Int("ops", 20000, "generated op count")
		tx       = flag.Int("tx", 5000, "transactions (postmark)")
		readFrac = flag.Float64("readfrac", 0.5, "synthetic read fraction")
		seqProb  = flag.Float64("seq", 0.0, "synthetic sequentiality")
		iaUs     = flag.Int64("ia", 100, "generated mean inter-arrival (us)")
		precond  = flag.Float64("precondition", 0.6, "fraction of the device to fill before the run (0 disables)")
		align    = flag.Bool("align", false, "apply the write merge+align pass before replay")
		stripeKB = flag.Int64("stripe", 32, "alignment stripe in KiB (with -align)")
		informed = flag.Bool("informed", false, "enable informed cleaning (free-page knowledge)")
		scheme   = flag.String("scheme", "", "FTL scheme override: page|block|hybrid")
		limit    = flag.Int("limit", 0, "replay at most this many ops (0 = no cap)")
		seed     = flag.Int64("seed", 1, "random seed")
		faultIn  = flag.String("fault", "", "apply a fault plan (JSON file) to the device")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		os.Exit(1)
	}

	if *list {
		for _, p := range core.ExtendedProfiles() {
			fmt.Printf("%-10s %-4s %s\n", p.Name, p.Kind, p.Description)
		}
		return
	}

	p, err := core.ProfileByName(*profile)
	if err != nil {
		fail(err)
	}
	var opts []core.Option
	if *informed {
		opts = append(opts, core.WithInformed(true))
	}
	if *faultIn != "" {
		plan, err := fault.Load(*faultIn)
		if err != nil {
			fail(err)
		}
		opts = append(opts, core.WithFault(plan))
	}
	switch *scheme {
	case "":
	case "page":
		opts = append(opts, core.WithScheme(ftl.PageMapped))
	case "block":
		opts = append(opts, core.WithScheme(ftl.BlockMapped))
	case "hybrid":
		opts = append(opts, core.WithScheme(ftl.HybridLog))
	default:
		fail(fmt.Errorf("unknown scheme %q", *scheme))
	}
	dev, err := core.Open(*profile, opts...)
	if err != nil {
		fail(err)
	}

	if *precond > 0 {
		fmt.Fprintf(os.Stderr, "preconditioning %.0f%% of %d MB...\n", *precond*100, dev.LogicalBytes()>>20)
		if err := core.PreconditionFrac(dev, 1<<20, *precond); err != nil {
			fail(err)
		}
	}

	// The workload is a stream end to end: decoded from disk or pulled
	// from the generator, optionally aligned, capped, and time-shifted —
	// replay memory is constant no matter how long the trace is.
	var stream trace.Stream
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if strings.HasSuffix(strings.ToLower(*traceIn), ".csv") {
			// Published block traces (MSR-Cambridge/SNIA CSV) replay
			// directly; distinct hostnames become tenant classes, so the
			// per-tenant breakdown below shows each server's share.
			stream = trace.DecodeCSV(f, trace.MSRLayout())
		} else {
			stream = trace.NewDecoder(f)
		}
	} else {
		// Any registered generator, targeted at 60% of the device's
		// address space (the iozone file defaults to a quarter of it).
		space := int64(float64(dev.LogicalBytes()) * 0.6)
		// ReqBytes stays unset so each generator keeps its own default
		// (4 KiB synthetic ops, 1 MiB seqwrites units).
		stream, err = workload.NewStream(*wl, workload.GenParams{
			Ops:                *ops,
			Transactions:       *tx,
			CapacityBytes:      space,
			ReadFrac:           *readFrac,
			SeqProb:            *seqProb,
			FileBytes:          space / 4,
			MeanInterarrivalUs: *iaUs,
			Seed:               *seed,
		})
		if err != nil {
			fail(err)
		}
	}
	if *align {
		stream, err = trace.AlignStream(stream, *stripeKB<<10, trace.AlignOptions{
			MaxGap:      6 * sim.Millisecond,
			ReadBarrier: true,
		})
		if err != nil {
			fail(err)
		}
	}
	if *limit > 0 {
		stream = trace.Limit(stream, *limit)
	}
	// Shift trace timestamps past the preconditioning window.
	stream = trace.Shift(stream, dev.Engine().Now())

	start := dev.Engine().Now()
	before := dev.Metrics()
	if err := dev.Drive(stream); err != nil {
		fail(err)
	}
	elapsed := (dev.Engine().Now() - start).Seconds()
	after := dev.Metrics()

	fmt.Printf("device        %s (%s)\n", p.Name, p.Description)
	fmt.Printf("ops           %d completed in %.3fs simulated\n", after.Completed-before.Completed, elapsed)
	fmt.Printf("read          %.1f MB at %.1f MB/s\n",
		float64(after.BytesRead-before.BytesRead)/1e6, stats.Bandwidth(after.BytesRead-before.BytesRead, elapsed))
	fmt.Printf("write         %.1f MB at %.1f MB/s\n",
		float64(after.BytesWritten-before.BytesWritten)/1e6, stats.Bandwidth(after.BytesWritten-before.BytesWritten, elapsed))
	fmt.Printf("mean response read %.3f ms, write %.3f ms (cumulative incl. precondition)\n", after.MeanReadMs, after.MeanWriteMs)
	fmt.Printf("latency       read p50/p95/p99 %.3f/%.3f/%.3f ms, write p50/p95/p99 %.3f/%.3f/%.3f ms\n",
		after.P50ReadMs, after.P95ReadMs, after.P99ReadMs, after.P50WriteMs, after.P95WriteMs, after.P99WriteMs)
	for _, ts := range after.Tenants {
		fmt.Printf("tenant %-6d %d reads / %d writes, %.1f MB read / %.1f MB written, p99 read %.3f ms, write %.3f ms\n",
			ts.Tenant, ts.Reads, ts.Writes,
			float64(ts.BytesRead)/1e6, float64(ts.BytesWritten)/1e6,
			ts.P99ReadMs, ts.P99WriteMs)
	}
	if after.FaultsInjected > 0 || after.RetiredBlocks > 0 {
		fmt.Printf("faults        %d injected, %d retried; %d blocks retired, %d pages remapped, %d failed ops\n",
			after.FaultsInjected, after.FaultRetries, after.RetiredBlocks, after.RemappedPages, after.Errors)
	}

	var raw *ssd.Device
	if s, ok := dev.(*core.SSD); ok {
		raw = s.Raw
	} else if o, ok := dev.(*core.OSD); ok {
		raw = o.Raw
		st := o.Store.Stats()
		fmt.Printf("object store  %.1f MB written, %.1f MB read, %.1f MB freed through extents\n",
			float64(st.BytesWritten)/1e6, float64(st.BytesRead)/1e6, float64(st.FreedBytes)/1e6)
	}
	if raw != nil {
		g := raw.GCStats()
		m := raw.Metrics()
		fmt.Printf("cleaning      %d passes, %d pages moved, %v total, %d erases\n",
			g.Cleans, g.PagesMoved, g.CleanTime, g.GCErases)
		fmt.Printf("frees         %d seen, %d applied\n", g.FreesSeen, g.FreesApplied)
		fmt.Printf("write amp     %.2fx\n", raw.WriteAmplification())
		fmt.Printf("bg cleans     %d (device-initiated)\n", m.BackgroundCleans)
		var wmin, wmax int
		for i, el := range raw.Elements() {
			w := el.Wear()
			if i == 0 || w.Min < wmin {
				wmin = w.Min
			}
			if w.Max > wmax {
				wmax = w.Max
			}
		}
		fmt.Printf("wear          erase counts %d..%d across blocks\n", wmin, wmax)
	}
	if h, ok := dev.(*core.HDD); ok {
		m := h.Raw.Metrics()
		fmt.Printf("seeks         %d, cache hits %d\n", m.Seeks, m.CacheHits)
	}
}
