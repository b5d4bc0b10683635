package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"ossd/internal/sim"
)

// TestQueueFairSingleTenantEquivalence is the tenancy refactor's
// determinism contract: with exactly one tenant class in play, weighted
// DRR degenerates to the base policy, so an engaged fair-share layer
// must reproduce the legacy dispatch sequence op-for-op — both
// policies, randomized workloads shallow and backlogged past 1,000
// requests, whether the traffic is tagged or rides the tenant-0 default.
func TestQueueFairSingleTenantEquivalence(t *testing.T) {
	const elements = 4
	shallow := shape{
		steps:   300,
		arrive:  shallowArrivals(elements),
		advance: func(rng *rand.Rand, now, _ sim.Time) sim.Time { return now + sim.Time(1+rng.Intn(20)) },
	}
	for _, policy := range []Policy{FCFS, SWTF} {
		for _, tenant := range []uint8{0, 5} {
			t.Run(policy.String(), func(t *testing.T) {
				trial := func(name string, seed int64, sh shape) {
					rng := rand.New(rand.NewSource(seed))
					fair := NewQueue(policy, elements)
					fair.SetTenantWeight(tenant, 2.5)
					plain := NewQueue(policy, elements)
					runTrial(t, name, rng, sh, elements, fair,
						queueModel{q: fair, tenant: func(int) uint8 { return tenant }}, queueModel{q: plain})
				}
				for n := 0; n < 10; n++ {
					trial(fmt.Sprintf("trial %d", n), int64(n)*100+int64(policy)+int64(tenant), shallow)
				}
				for n := 0; n < 2; n++ {
					trial(fmt.Sprintf("backlog trial %d", n), int64(n)*100+int64(policy)+int64(tenant)+7, backlogShape(elements))
				}
			})
		}
	}
}

// legacyFair is the reference for mixed-tenant sweeps: weighted DRR
// written directly over per-tenant pending slices scanned with Pick —
// the tenant ring sorted by ID and grown on first sight, deficits
// refilled by quantum x weight for tenants whose head is dispatchable
// and cleared when a tenant empties.
type legacyFair struct {
	policy    Policy
	busyUntil []sim.Time
	tens      []*legacyTenant
	rr        int
	seq       uint64
	tenant    func(id int) uint8
}

type legacyTenant struct {
	id              uint8
	weight, deficit float64
	pending         []*Entry
	ids             map[uint64]int // seq -> pushed id
}

// newLegacyFair registers weights[i] for tenant i+1, in that order, as
// the queue's SetTenantWeight calls do.
func newLegacyFair(policy Policy, elements int, weights []float64, tenant func(int) uint8) *legacyFair {
	l := &legacyFair{policy: policy, busyUntil: make([]sim.Time, elements), tenant: tenant}
	for i, w := range weights {
		l.tenantFor(uint8(i + 1)).weight = w
	}
	return l
}

func (l *legacyFair) tenantFor(id uint8) *legacyTenant {
	i := 0
	for i < len(l.tens) && l.tens[i].id < id {
		i++
	}
	if i < len(l.tens) && l.tens[i].id == id {
		return l.tens[i]
	}
	tn := &legacyTenant{id: id, weight: 1, ids: map[uint64]int{}}
	l.tens = append(l.tens[:i], append([]*legacyTenant{tn}, l.tens[i:]...)...)
	if i <= l.rr && len(l.tens) > 1 {
		l.rr++
	}
	return tn
}

func (l *legacyFair) push(elems []int, id int) {
	tn := l.tenantFor(l.tenant(id))
	l.seq++
	tn.pending = append(tn.pending, &Entry{Elems: append([]int(nil), elems...), Seq: l.seq})
	tn.ids[l.seq] = id
}

func (l *legacyFair) pop(now sim.Time) (int, bool) {
	n := len(l.tens)
	for {
		deficitBlocked := false
		for i := 0; i < n; i++ {
			idx := (l.rr + i) % n
			tn := l.tens[idx]
			h := Pick(l.policy, tn.pending, l.busyUntil, now)
			if h < 0 {
				continue
			}
			e := tn.pending[h]
			id := tn.ids[e.Seq]
			if cost := float64(opCost(id)); tn.deficit >= cost {
				tn.deficit -= cost
				l.rr = idx
				tn.pending = append(tn.pending[:h], tn.pending[h+1:]...)
				if len(tn.pending) == 0 {
					tn.deficit = 0
				}
				return id, true
			}
			deficitBlocked = true
		}
		if !deficitBlocked {
			return 0, false
		}
		for _, tn := range l.tens {
			if Pick(l.policy, tn.pending, l.busyUntil, now) >= 0 {
				tn.deficit += drrQuantum * tn.weight
			}
		}
	}
}

func (l *legacyFair) setBusy(e int, until sim.Time) {
	if until > l.busyUntil[e] {
		l.busyUntil[e] = until
	}
}

func (l *legacyFair) len() int {
	n := 0
	for _, tn := range l.tens {
		n += len(tn.pending)
	}
	return n
}

// TestQueueFairMixedTenantEquivalence pins weighted DRR over the indexed
// sub-queues against legacyFair's Pick scans op-for-op: four tenant
// classes at unequal weights (one of them first seen mid-run), byte
// costs that vary per request, both policies, shallow and backlogged
// past 1,000 requests.
func TestQueueFairMixedTenantEquivalence(t *testing.T) {
	const elements = 4
	weights := []float64{1, 2.5, 4} // tenants 1, 2, 3
	// Tenant 4 has no weight: both sides meet it on its first push.
	tenant := func(id int) uint8 { return uint8(1 + (uint32(id)*2654435761>>16)%4) }
	shallow := shape{
		steps:   300,
		arrive:  shallowArrivals(elements),
		advance: func(rng *rand.Rand, now, _ sim.Time) sim.Time { return now + sim.Time(1+rng.Intn(20)) },
	}
	for _, policy := range []Policy{FCFS, SWTF} {
		t.Run(policy.String(), func(t *testing.T) {
			trial := func(name string, seed int64, sh shape) {
				rng := rand.New(rand.NewSource(seed))
				q := NewQueue(policy, elements)
				for i, w := range weights {
					q.SetTenantWeight(uint8(i+1), w)
				}
				runTrial(t, name, rng, sh, elements, q,
					queueModel{q: q, tenant: tenant}, newLegacyFair(policy, elements, weights, tenant))
			}
			for n := 0; n < 10; n++ {
				trial(fmt.Sprintf("trial %d", n), int64(n)*100+int64(policy)+11, shallow)
			}
			for n := 0; n < 2; n++ {
				trial(fmt.Sprintf("backlog trial %d", n), int64(n)*100+int64(policy)+13, backlogShape(elements))
			}
		})
	}
}

// TestQueueFairShareBytes pins the DRR arithmetic: two tenants with a
// continuously backlogged single element and weights 1:3 split the
// dispatched bytes 1:3 (within one quantum of slack).
func TestQueueFairShareBytes(t *testing.T) {
	for _, policy := range []Policy{FCFS, SWTF} {
		t.Run(policy.String(), func(t *testing.T) {
			q := NewQueue(policy, 1)
			q.SetTenantWeight(1, 1)
			q.SetTenantWeight(2, 3)
			const opBytes = 8 << 10
			elems := []int{0}
			backlog := func(tenant uint8, n int) {
				for i := 0; i < n; i++ {
					q.PushT(elems, int(tenant), tenant, opBytes)
				}
			}
			backlog(1, 4096)
			backlog(2, 4096)
			bytesOf := map[int]int64{}
			now := sim.Time(0)
			for i := 0; i < 4000; i++ {
				data, ok := q.Pop(now)
				if !ok {
					t.Fatalf("pop %d: backlogged queue stalled", i)
				}
				bytesOf[data.(int)] += opBytes
				q.SetBusy(0, now+1)
				now++
			}
			ratio := float64(bytesOf[2]) / float64(bytesOf[1])
			if ratio < 2.8 || ratio > 3.2 {
				t.Fatalf("dispatched bytes tenant2/tenant1 = %.2f (t1=%d t2=%d), want ~3",
					ratio, bytesOf[1], bytesOf[2])
			}
		})
	}
}

// TestQueueFairWorkConserving: fair-share never idles the device to
// honor a share — when one tenant's head is blocked on a busy element,
// another tenant's dispatchable work proceeds regardless of deficits.
func TestQueueFairWorkConserving(t *testing.T) {
	q := NewQueue(SWTF, 2)
	q.SetTenantWeight(1, 100) // heavy tenant, but blocked below
	q.SetTenantWeight(2, 1)
	q.SetBusy(0, 1000)
	q.PushT([]int{0}, "heavy", 1, 4096)
	q.PushT([]int{1}, "light", 2, 4096)
	if data, ok := q.Pop(0); !ok || data != "light" {
		t.Fatalf("Pop = %v, %v, want light (work conservation)", data, ok)
	}
	if _, ok := q.Pop(0); ok {
		t.Fatal("dispatched onto a busy element")
	}
	if data, ok := q.Pop(1000); !ok || data != "heavy" {
		t.Fatalf("Pop = %v, %v, want heavy after horizon", data, ok)
	}
}

// TestQueuePopAllocFreeFair extends the allocation contract to the
// weighted pick path: a warm fair-share dispatch cycle across several
// tenants allocates nothing.
func TestQueuePopAllocFreeFair(t *testing.T) {
	const elements = 8
	type req struct{ elem int }
	q := NewQueue(SWTF, elements)
	q.SetTenantWeight(1, 1)
	q.SetTenantWeight(2, 4)
	q.SetTenantWeight(3, 2)
	elems := make([][]int, elements)
	reqs := make([]*req, elements)
	for e := 0; e < elements; e++ {
		elems[e] = []int{e}
		reqs[e] = &req{elem: e}
	}
	for i := 0; i < 1024; i++ {
		q.PushT(elems[i%elements], reqs[i%elements], uint8(1+i%3), 4096)
	}
	now := sim.Time(0)
	i := 1024
	allocs := testing.AllocsPerRun(10000, func() {
		data, ok := q.Pop(now)
		if !ok {
			t.Fatal("steady-state pop failed")
		}
		e := data.(*req).elem
		q.SetBusy(e, now+1)
		q.PushT(elems[i%elements], reqs[i%elements], uint8(1+i%3), 4096)
		i++
		now++
	})
	if allocs > 0 {
		t.Fatalf("fair dispatch cycle allocates %.1f times per op, want 0", allocs)
	}
}
