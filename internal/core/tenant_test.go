package core

import (
	"testing"

	"ossd/internal/fault"
	"ossd/internal/trace"
)

// tenantMixLoop drives n closed-loop ops spread across tenants 0, 1, and
// 3, alternating reads and writes, plus one free notification at the end.
func tenantMixLoop(t *testing.T, d Device, n int) {
	t.Helper()
	tenants := []uint8{0, 1, 3}
	i := 0
	err := d.ClosedLoop(2, func(int) (trace.Op, bool) {
		if i >= n {
			return trace.Op{}, false
		}
		op := trace.Op{
			Kind:   trace.Write,
			Offset: int64(i%256) * 4096,
			Size:   4096,
			Tenant: tenants[i%len(tenants)],
		}
		if i%2 == 1 {
			op.Kind = trace.Read
		}
		i++
		return op, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(trace.Op{Kind: trace.Free, Offset: 0, Size: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	d.Engine().Run()
}

// auditTenants checks the Snapshot invariant the per-tenant view
// guarantees: entries arrive in tenant order and, for every
// tenant-attributed statistic, sum to the top-level totals (frees and
// errors are device-global and excluded).
func auditTenants(t *testing.T, s Snapshot) {
	t.Helper()
	var ops, br, bw int64
	last := -1
	for _, ts := range s.Tenants {
		if ts.Tenant <= last {
			t.Fatalf("tenants out of order: %+v", s.Tenants)
		}
		last = ts.Tenant
		ops += ts.Reads + ts.Writes
		br += ts.BytesRead
		bw += ts.BytesWritten
	}
	if want := s.Completed - s.Frees; ops != want {
		t.Fatalf("tenant ops sum %d, want completed-frees %d", ops, want)
	}
	if br != s.BytesRead || bw != s.BytesWritten {
		t.Fatalf("tenant bytes sum %d/%d, totals %d/%d", br, bw, s.BytesRead, s.BytesWritten)
	}
}

// Every device kind attributes completions to tenants the same way: one
// entry per tenant seen, in order, summing to the host totals.
func TestSnapshotTenantsSumAcrossKinds(t *testing.T) {
	for _, name := range []string{"ssd", "hdd", "mems", "raid", "osd"} {
		t.Run(name, func(t *testing.T) {
			d, err := Open(name)
			if err != nil {
				t.Fatal(err)
			}
			tenantMixLoop(t, d, 120)
			s := d.Metrics()
			if len(s.Tenants) != 3 {
				t.Fatalf("saw %d tenants, want 3: %+v", len(s.Tenants), s.Tenants)
			}
			for i, want := range []int{0, 1, 3} {
				if s.Tenants[i].Tenant != want {
					t.Fatalf("tenant[%d] = %d, want %d", i, s.Tenants[i].Tenant, want)
				}
			}
			auditTenants(t, s)
		})
	}
}

// The generic fault injector reconciles the per-tenant view exactly like
// the totals: retries are not double-counted, dead ops count for their
// tenant but move no bytes, and the per-tenant entries still sum to the
// reconciled host counters.
func TestFaultDeviceTenantAudit(t *testing.T) {
	clean, err := Open("hdd")
	if err != nil {
		t.Fatal(err)
	}
	tenantMixLoop(t, clean, 200)

	plan := &fault.Plan{Seed: 11, Transient: &fault.Transient{Rate: 0.05, RetryUs: 20000}}
	faulty, err := Open("hdd", WithFault(plan))
	if err != nil {
		t.Fatal(err)
	}
	tenantMixLoop(t, faulty, 200)

	cm, fm := clean.Metrics(), faulty.Metrics()
	if fm.FaultRetries == 0 {
		t.Fatal("no retries injected at 5% rate")
	}
	auditTenants(t, fm)
	if len(fm.Tenants) != len(cm.Tenants) {
		t.Fatalf("faulty saw %d tenants, clean %d", len(fm.Tenants), len(cm.Tenants))
	}
	for i := range fm.Tenants {
		f, c := fm.Tenants[i], cm.Tenants[i]
		if f.Reads != c.Reads || f.Writes != c.Writes ||
			f.BytesRead != c.BytesRead || f.BytesWritten != c.BytesWritten {
			t.Fatalf("tenant %d drifted under retries: faulty %+v clean %+v", f.Tenant, f, c)
		}
	}

	// Deaths: failed ops count for their tenant but move no bytes.
	dplan := &fault.Plan{Deaths: []fault.Death{{Element: 0, AfterOps: 50}}}
	dead, err := Open("mems", WithFault(dplan))
	if err != nil {
		t.Fatal(err)
	}
	tenantMixLoop(t, dead, 200)
	dm := dead.Metrics()
	if dm.Errors == 0 {
		t.Fatal("death plan injected nothing")
	}
	auditTenants(t, dm)
}
