package core

import (
	"strings"
	"testing"

	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/trace"
)

func TestOpenResolvesEveryRegisteredProfile(t *testing.T) {
	for _, p := range ExtendedProfiles() {
		d, err := Open(p.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if d.LogicalBytes() <= 0 {
			t.Fatalf("%s: no capacity", p.Name)
		}
	}
}

func TestOpenUnknownProfile(t *testing.T) {
	_, err := Open("no-such-device")
	if err == nil || !strings.Contains(err.Error(), "no-such-device") {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenKindBases(t *testing.T) {
	wantKind := map[string]Kind{
		"ssd": KindSSD, "hdd": KindHDD, "mems": KindMEMS, "raid": KindRAID, "osd": KindOSD,
	}
	for name, kind := range wantKind {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != kind {
			t.Fatalf("%s resolved to kind %s", name, p.Kind)
		}
		d, err := Open(name)
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "ssd":
			if _, ok := d.(*SSD); !ok {
				t.Fatalf("ssd built %T", d)
			}
		case "hdd":
			if _, ok := d.(*HDD); !ok {
				t.Fatalf("hdd built %T", d)
			}
		case "mems":
			if _, ok := d.(*MEMS); !ok {
				t.Fatalf("mems built %T", d)
			}
		case "raid":
			if _, ok := d.(*RAID); !ok {
				t.Fatalf("raid built %T", d)
			}
		case "osd":
			if _, ok := d.(*OSD); !ok {
				t.Fatalf("osd built %T", d)
			}
		}
	}
}

func TestRegisterRejectsDuplicatesAndAnonymous(t *testing.T) {
	if err := Register(Profile{}); err == nil {
		t.Fatal("registered a nameless profile")
	}
	if err := Register(Profile{Name: "ssd"}); err == nil {
		t.Fatal("registered a duplicate name")
	}
}

func TestRegisterCustomProfile(t *testing.T) {
	cfg := BaseSSDConfig()
	cfg.Elements = 2
	p := Profile{
		Name:        "test-custom-ssd",
		Description: "registered by the test suite",
		Kind:        KindSSD,
		SSD:         cfg,
		SeqReqBytes: 4096, RandReqBytes: 4096,
		SeqReadDepth: 1, RandReadDepth: 1, SeqWriteDepth: 1, RandWriteDepth: 1,
	}
	if err := Register(p); err != nil {
		t.Fatal(err)
	}
	d, err := Open("test-custom-ssd")
	if err != nil {
		t.Fatal(err)
	}
	if sd, ok := d.(*SSD); !ok || sd.Raw.Config().Elements != 2 {
		t.Fatalf("custom profile built %T", d)
	}
	// And the registry lists it.
	found := false
	for _, q := range ExtendedProfiles() {
		if q.Name == p.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("registered profile missing from listing")
	}
}

func TestOptionsApply(t *testing.T) {
	d, err := Open("ssd",
		WithScheme(ftl.BlockMapped),
		WithScheduler(sched.FCFS),
		WithStripe(32<<10),
		WithInformed(true),
		WithPriorityAware(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.(*SSD).Raw.Config()
	if cfg.Scheme != ftl.BlockMapped || cfg.Scheduler != sched.FCFS {
		t.Fatalf("scheme/scheduler: %+v", cfg)
	}
	if cfg.StripeBytes != 32<<10 || !cfg.Informed || !cfg.PriorityAware {
		t.Fatalf("stripe/informed/aware: %+v", cfg)
	}
}

func TestOptionsDoNotMutateRegistry(t *testing.T) {
	if _, err := Open("ssd", WithScheme(ftl.BlockMapped)); err != nil {
		t.Fatal(err)
	}
	p, err := ProfileByName("ssd")
	if err != nil {
		t.Fatal(err)
	}
	if p.SSD.Scheme == ftl.BlockMapped {
		t.Fatal("option leaked into the registry")
	}
}

func TestWithCapacity(t *testing.T) {
	small, err := Open("ssd", WithCapacity(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Open("ssd", WithCapacity(256<<20))
	if err != nil {
		t.Fatal(err)
	}
	if small.LogicalBytes() >= big.LogicalBytes() {
		t.Fatalf("capacity option ignored: %d vs %d", small.LogicalBytes(), big.LogicalBytes())
	}
	// Within geometry rounding of the request.
	if got := small.LogicalBytes(); got < 24<<20 || got > 48<<20 {
		t.Fatalf("32 MiB request built %d bytes", got)
	}
	h, err := Open("hdd", WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if h.LogicalBytes() != 1<<30 {
		t.Fatalf("hdd capacity %d", h.LogicalBytes())
	}
}

func TestOptionsRejectWrongKind(t *testing.T) {
	if _, err := Open("hdd", WithScheme(ftl.PageMapped)); err == nil {
		t.Fatal("hdd accepted an FTL scheme")
	}
	if _, err := Open("mems", WithStripe(64<<10)); err == nil {
		t.Fatal("mems accepted a stripe")
	}
	if _, err := Open("raid", WithInformed(true)); err == nil {
		t.Fatal("raid accepted informed cleaning")
	}
}

func TestWithQueueDepthAndSeed(t *testing.T) {
	p, err := ProfileByName("ssd")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Option{WithQueueDepth(8), WithSeed(99)} {
		if err := opt(&p); err != nil {
			t.Fatal(err)
		}
	}
	if p.SeqReadDepth != 8 || p.RandWriteDepth != 8 || p.Seed != 99 {
		t.Fatalf("depth/seed options: %+v", p)
	}
}

// Drive on a registry-built device honors timestamps and leaves the
// device drained — the stream path end to end.
func TestOpenThenDrive(t *testing.T) {
	d, err := Open("ssd")
	if err != nil {
		t.Fatal(err)
	}
	var st trace.Stats
	s := trace.Tally(trace.FromSlice([]trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 4096},
		{At: 1000, Kind: trace.Write, Offset: 4096, Size: 4096},
		{At: 2000, Kind: trace.Read, Offset: 0, Size: 4096},
		{At: 3000, Kind: trace.Free, Offset: 4096, Size: 4096},
	}), &st)
	if err := d.Drive(s); err != nil {
		t.Fatal(err)
	}
	if st.Ops != 4 || st.Frees != 1 {
		t.Fatalf("tally: %+v", st)
	}
	m := d.Metrics()
	if m.BytesWritten != 8192 || m.BytesRead != 4096 || m.Frees != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if d.Engine().Pending() != 0 {
		t.Fatal("drive left events pending")
	}
}
