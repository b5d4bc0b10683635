package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"ossd/internal/sim"
)

func TestQueueFCFSOrderAndBlocking(t *testing.T) {
	q := NewQueue(FCFS, 2)
	a := q.Push([]int{0}, "a")
	b := q.Push([]int{1}, "b")
	if a != 1 || b != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", a, b)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	// Head targets a busy element: FCFS must stall even though the
	// second request's element is idle.
	q.SetBusy(0, 100)
	if data, ok := q.Pop(10); ok {
		t.Fatalf("FCFS dispatched %v past a blocked head", data)
	}
	// Head clears: both dispatch, in arrival order.
	if data, ok := q.Pop(100); !ok || data != "a" {
		t.Fatalf("Pop = %v, %v, want a", data, ok)
	}
	if data, ok := q.Pop(100); !ok || data != "b" {
		t.Fatalf("Pop = %v, %v, want b", data, ok)
	}
	if _, ok := q.Pop(100); ok || q.Len() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

func TestQueueSWTFBypassAndTieBreak(t *testing.T) {
	q := NewQueue(SWTF, 2)
	q.SetBusy(0, 100)
	q.Push([]int{0}, "blocked")
	q.Push([]int{1}, "bypass")
	// SWTF bypasses the blocked head to the idle element.
	if data, ok := q.Pop(10); !ok || data != "bypass" {
		t.Fatalf("Pop = %v, %v, want bypass", data, ok)
	}
	if _, ok := q.Pop(10); ok {
		t.Fatal("dispatched onto a busy element")
	}
	// Element 0 clears; the parked request dispatches.
	if data, ok := q.Pop(100); !ok || data != "blocked" {
		t.Fatalf("Pop = %v, %v, want blocked", data, ok)
	}

	// Equal waits tie-break by arrival order.
	q2 := NewQueue(SWTF, 2)
	q2.Push([]int{1}, "first")
	q2.Push([]int{0}, "second")
	if data, ok := q2.Pop(0); !ok || data != "first" {
		t.Fatalf("tie Pop = %v, %v, want first", data, ok)
	}
}

func TestQueueSetBusyMonotone(t *testing.T) {
	q := NewQueue(SWTF, 1)
	q.SetBusy(0, 50)
	q.SetBusy(0, 30) // horizons only grow
	if got := q.Busy(0); got != 50 {
		t.Fatalf("Busy = %v, want 50", got)
	}
	if q.Idle(0, 49) || !q.Idle(0, 50) {
		t.Fatal("Idle threshold wrong")
	}
}

func TestQueueMultiElementParking(t *testing.T) {
	q := NewQueue(SWTF, 3)
	q.SetBusy(1, 30)
	q.Push([]int{0, 1, 2}, "striped")
	q.Push([]int{2}, "single")
	// The striped request waits on element 1; the single dispatches.
	if data, ok := q.Pop(0); !ok || data != "single" {
		t.Fatalf("Pop = %v, %v, want single", data, ok)
	}
	// Element 2 now busy from... no, Pop does not mark busy; mark it.
	q.SetBusy(2, 60)
	// At 30 element 1 clears but 2 is busy: striped re-parks.
	if _, ok := q.Pop(30); ok {
		t.Fatal("striped dispatched with element 2 busy")
	}
	if data, ok := q.Pop(60); !ok || data != "striped" {
		t.Fatalf("Pop = %v, %v, want striped", data, ok)
	}
}

// legacyQueue replays the scan-era dispatch machinery exactly: a pending
// slice re-scanned with Pick and compacted by index on every dispatch.
type legacyQueue struct {
	policy    Policy
	pending   []*Entry
	data      map[uint64]int // seq -> pushed id
	busyUntil []sim.Time
	seq       uint64
}

func newLegacy(policy Policy, elements int) *legacyQueue {
	return &legacyQueue{
		policy:    policy,
		data:      map[uint64]int{},
		busyUntil: make([]sim.Time, elements),
	}
}

func (l *legacyQueue) push(elems []int, id int) {
	l.seq++
	l.pending = append(l.pending, &Entry{Elems: append([]int(nil), elems...), Seq: l.seq})
	l.data[l.seq] = id
}

func (l *legacyQueue) pop(now sim.Time) (int, bool) {
	idx := Pick(l.policy, l.pending, l.busyUntil, now)
	if idx < 0 {
		return 0, false
	}
	e := l.pending[idx]
	l.pending = append(l.pending[:idx], l.pending[idx+1:]...)
	return l.data[e.Seq], true
}

func (l *legacyQueue) setBusy(e int, until sim.Time) {
	if until > l.busyUntil[e] {
		l.busyUntil[e] = until
	}
}

func (l *legacyQueue) len() int { return len(l.pending) }

// serviceTime is the deterministic per-(request, element) busy duration
// both models apply on dispatch.
func serviceTime(id, elem int) sim.Time {
	return sim.Time(1 + (id*31+elem*7)%53)
}

// model is one side of an equivalence sweep: a dispatcher driven through
// pushes of numbered requests, pops, and busy horizons.
type model interface {
	push(elems []int, id int)
	pop(now sim.Time) (int, bool)
	setBusy(e int, until sim.Time)
	len() int
}

// queueModel adapts a Queue to model. With tenant set, every push is
// tagged with that tenant class and a byte cost that varies by request.
type queueModel struct {
	q      *Queue
	tenant func(id int) uint8
}

func (m queueModel) push(elems []int, id int) {
	if m.tenant == nil {
		m.q.Push(elems, id)
		return
	}
	m.q.PushT(elems, id, m.tenant(id), opCost(id))
}

func (m queueModel) pop(now sim.Time) (int, bool) {
	data, ok := m.q.Pop(now)
	if !ok {
		return 0, false
	}
	return data.(int), true
}

func (m queueModel) setBusy(e int, until sim.Time) { m.q.SetBusy(e, until) }
func (m queueModel) len() int                      { return m.q.Len() }

// opCost is request id's DRR dispatch cost in the tenant sweeps.
func opCost(id int) int64 { return int64(4096 * (1 + id%8)) }

// shape is a randomized workload for the equivalence sweeps.
type shape struct {
	steps   int                                               // steps that take arrivals
	arrive  func(rng *rand.Rand) [][]int                      // element sets arriving in one step
	advance func(rng *rand.Rand, now, next sim.Time) sim.Time // next: earliest horizon past now, or 0
	// drain keeps stepping after the arrival steps, jumping to the next
	// horizon, until the queue is empty; the trial fails unless the
	// backlog peaked at minDepth or more.
	drain    bool
	minDepth int
}

// shallowArrivals brings 0–3 requests per step over 1–3 distinct
// elements.
func shallowArrivals(elements int) func(*rand.Rand) [][]int {
	return func(rng *rand.Rand) [][]int {
		var sets [][]int
		for n := rng.Intn(4); n > 0; n-- {
			k := 1 + rng.Intn(3)
			sets = append(sets, rng.Perm(elements)[:k])
		}
		return sets
	}
}

// backlogShape is postmark's shape on a 4-element striped device, held
// deep: 4–8 requests arrive per step of 1–4 time units, far faster than
// the elements serve them, each over 1–4 consecutive elements (wrapping)
// listed in a random order — so element sets repeat, in different orders
// — and the backlog passes 1,000 before the queue drains.
func backlogShape(elements int) shape {
	return shape{
		steps: 300,
		arrive: func(rng *rand.Rand) [][]int {
			sets := make([][]int, 4+rng.Intn(5))
			for i := range sets {
				start, width := rng.Intn(elements), 1+rng.Intn(4)
				set := make([]int, width)
				for j := range set {
					set[j] = (start + j) % elements
				}
				rng.Shuffle(width, func(a, b int) { set[a], set[b] = set[b], set[a] })
				sets[i] = set
			}
			return sets
		},
		advance:  func(rng *rand.Rand, now, _ sim.Time) sim.Time { return now + sim.Time(1+rng.Intn(4)) },
		drain:    true,
		minDepth: 1000,
	}
}

// runTrial drives got and want through one trial of sh, dispatching
// everything dispatchable after each step's arrivals and applying
// identical busy horizons to both, and fails on the first dispatch that
// differs. q, the queue behind got, passes check after every dispatch
// and every step.
func runTrial(t *testing.T, name string, rng *rand.Rand, sh shape, elements int, q *Queue, got, want model) {
	t.Helper()
	elemsOf := map[int][]int{} // id -> element set
	now := sim.Time(0)
	id, depth := 0, 0
	for step := 0; step < sh.steps || (sh.drain && want.len() > 0); step++ {
		if step < sh.steps {
			for _, set := range sh.arrive(rng) {
				elemsOf[id] = set
				got.push(set, id)
				want.push(set, id)
				id++
			}
		}
		if n := want.len(); n > depth {
			depth = n
		}
		for {
			g, ok := got.pop(now)
			w, wok := want.pop(now)
			if ok != wok {
				t.Fatalf("%s step %d: queue ok=%v reference ok=%v", name, step, ok, wok)
			}
			if !ok {
				break
			}
			if g != w {
				t.Fatalf("%s step %d: queue dispatched %d, reference %d", name, step, g, w)
			}
			if err := q.check(now); err != nil {
				t.Fatalf("%s step %d, after dispatching %d: %v", name, step, g, err)
			}
			for _, e := range elemsOf[g] {
				until := now + serviceTime(g, e)
				got.setBusy(e, until)
				want.setBusy(e, until)
			}
		}
		if err := q.check(now); err != nil {
			t.Fatalf("%s step %d: %v", name, step, err)
		}
		var next sim.Time
		for e := 0; e < elements; e++ {
			if b := q.Busy(e); b > now && (next == 0 || b < next) {
				next = b
			}
		}
		if step+1 >= sh.steps && sh.drain {
			now = max(next, now+1)
			continue
		}
		now = sh.advance(rng, now, next)
	}
	if got.len() != want.len() {
		t.Fatalf("%s: queue len %d, reference %d", name, got.len(), want.len())
	}
	if depth < sh.minDepth {
		t.Fatalf("%s: backlog peaked at %d, shape needs %d", name, depth, sh.minDepth)
	}
}

// TestQueueEquivalence drives the indexed Queue and the legacy Pick scan
// through identical randomized workloads — both policies, a mix of
// single- and multi-element requests over several elements, interleaved
// arrivals, dispatches, and time advances, shallow and backlogged past
// 1,000 requests — and requires the dispatch sequences to match
// op-for-op. This is the refactor's determinism contract: the index may
// change the complexity, never the schedule.
func TestQueueEquivalence(t *testing.T) {
	const elements = 4
	shallow := shape{
		steps:  400,
		arrive: shallowArrivals(elements),
		// Small step, or a jump to the next horizon.
		advance: func(rng *rand.Rand, now, next sim.Time) sim.Time {
			if rng.Intn(3) == 0 && next > now {
				return next
			}
			return now + sim.Time(1+rng.Intn(20))
		},
	}
	for _, policy := range []Policy{FCFS, SWTF} {
		t.Run(policy.String(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*100 + int64(policy)))
				q := NewQueue(policy, elements)
				runTrial(t, fmt.Sprintf("trial %d", trial), rng, shallow, elements,
					q, queueModel{q: q}, newLegacy(policy, elements))
			}
			for trial := 0; trial < 3; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*100 + int64(policy) + 7))
				q := NewQueue(policy, elements)
				runTrial(t, fmt.Sprintf("backlog trial %d", trial), rng, backlogShape(elements), elements,
					q, queueModel{q: q}, newLegacy(policy, elements))
			}
		})
	}
}

// stripes returns every run of 1–4 consecutive elements (wrapping) over
// a 4-element device, odd-started ones listed high to low: postmark's
// request shapes, with each set keyed regardless of element order.
func stripes() [][]int {
	var sets [][]int
	for width := 1; width <= 4; width++ {
		for start := 0; start < 4; start++ {
			set := make([]int, width)
			for j := range set {
				set[j] = (start + j) % 4
				if start%2 == 1 {
					set[j] = (start + width - 1 - j) % 4
				}
			}
			sets = append(sets, set)
		}
	}
	return sets
}

// TestQueuePopAllocFree pins the tentpole's allocation contract: a
// steady-state dispatch cycle (pop one, mark busy, push a replacement)
// allocates nothing once the item pool is warm — for single-element
// requests, and for striped multi-element ones over a 1,024-deep backlog
// in single-tenant and fair-share mode, where the cycle also parks and
// wakes element-set groups.
func TestQueuePopAllocFree(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		const elements = 8
		type req struct{ elem int }
		q := NewQueue(SWTF, elements)
		elems := make([][]int, elements)
		reqs := make([]*req, elements)
		for e := 0; e < elements; e++ {
			elems[e] = []int{e}
			reqs[e] = &req{elem: e}
		}
		for i := 0; i < 1024; i++ {
			q.Push(elems[i%elements], reqs[i%elements])
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
			q.Push(elems[i%elements], reqs[i%elements])
			i++
			now++
		})
		// The candidate heap and wake heap reach a steady size during warmup;
		// after that the cycle must be allocation-free.
		if allocs > 0 {
			t.Fatalf("dispatch cycle allocates %.1f times per op, want 0", allocs)
		}
	})
	for _, fair := range []bool{false, true} {
		name := map[bool]string{false: "striped", true: "striped-fair"}[fair]
		t.Run(name, func(t *testing.T) {
			sets := stripes()
			q := NewQueue(SWTF, 4)
			if fair {
				q.SetTenantWeight(1, 1)
				q.SetTenantWeight(2, 4)
				q.SetTenantWeight(3, 2)
			}
			i := 0
			push := func() {
				set := &sets[(i*7)%len(sets)]
				q.PushT(*set, set, uint8(1+i%3), 4096)
				i++
			}
			now := sim.Time(0)
			cycle := func() {
				data, ok := q.Pop(now)
				for !ok {
					now++
					data, ok = q.Pop(now)
				}
				for _, e := range *data.(*[]int) {
					q.SetBusy(e, now+sim.Time(1+e))
				}
				push()
			}
			for i < 1024 {
				push()
			}
			for n := 0; n < 1000; n++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(10000, cycle); allocs > 0 {
				t.Fatalf("striped dispatch cycle allocates %.1f times per op, want 0", allocs)
			}
			if q.Len() != 1024 {
				t.Fatalf("backlog drifted to %d", q.Len())
			}
		})
	}
}
