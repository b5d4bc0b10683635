package sched

import "ossd/internal/sim"

// Queue is the stateful, indexed successor of the stateless Pick scan: a
// dispatch queue that knows each parallel element's busy horizon and
// answers "what dispatches now?" without rescanning (or reallocating) the
// whole pending set on every decision.
//
// The legacy Pick contract is preserved exactly — the equivalence test in
// queue_test.go pins the dispatch sequence op-for-op against Pick on
// randomized workloads, shallow and deeply backlogged:
//
//   - FCFS dispatches strictly in arrival order; if the head's elements
//     are busy nothing dispatches (head-of-line blocking). The index is an
//     intrusive FIFO: Pop inspects only the head.
//   - SWTF dispatches the request with the shortest wait, tie-broken by
//     arrival Seq, and only when that wait is zero. Since ties break by
//     Seq and dispatch happens only at wait zero, the winner is always
//     the lowest-Seq request whose elements are all idle. Requests over
//     the same element set share their wait, so they dispatch in Seq
//     order and only the earliest of them can win: the index (swtfIndex)
//     keeps one arrival-order FIFO per distinct element set — a group —
//     and holds groups, not requests, in a min-heap of candidates keyed
//     by their head's Seq and, per element, in lists of groups parked
//     until that element's busy horizon passes. A dispatch costs
//     O(log G), where G is the number of element sets with queued
//     requests (13 at most on a 4-element striped device, however deep
//     the backlog); a wake costs the groups parked on that element.
//     BenchmarkDispatchSWTFBacklog, a 4,096-deep striped backlog on 4
//     elements, measures about 630 ns per dispatch at 0 allocs on a
//     2-CPU Xeon, against 370 µs when the index held single requests
//     and each wake re-parked an element's whole backlog.
//
// A Queue owns the busy horizons of its elements (the busyUntil vector
// the scan-era device kept by hand): media models mark elements busy with
// SetBusy and the queue wakes parked groups as the clock passes their
// horizons. Items are pooled and their payload slots cleared on Pop, so
// the queue neither allocates on the dispatch path nor pins completed
// requests for the garbage collector.
//
// A Queue optionally layers weighted fair-share dispatch across tenant
// classes on top of either policy: SetTenantWeight switches it into
// deficit-round-robin mode, where each tenant keeps its own sub-queue
// (arrival FIFO or element-set index) ordered by the base policy, and a
// DRR pointer with per-tenant byte-deficit counters picks which tenant's
// dispatchable head goes next. Until SetTenantWeight is called the
// fair-share layer does not exist — every code path is the single-tenant
// one, so legacy runs are byte-identical to the pre-tenancy queue.
//
// Queues are not safe for concurrent use; like the sim.Engine that drives
// them, a queue belongs to a single simulation.
type Queue struct {
	policy    Policy
	busyUntil []sim.Time
	seq       uint64
	length    int

	// sub is the single-tenant index; wakes is the min-heap of
	// (horizon, element) wake records shared by every SWTF index.
	sub   subQueue
	wakes []wake

	// Weighted fair-share (DRR) state; engaged by SetTenantWeight. tens
	// is the tenant ring, sorted by tenant ID; rr is the round-robin
	// pointer into it.
	fair bool
	tens []*tenantQ
	rr   int

	// free is the item pool (singly linked through next).
	free *item
}

// drrQuantum is the base deficit refill in bytes; a tenant's refill is
// drrQuantum times its weight.
const drrQuantum = 64 << 10

// subQueue orders one request population by the base policy: an
// arrival-order FIFO under FCFS, an element-set index under SWTF.
type subQueue struct {
	fifo fifo
	swtf swtfIndex
}

// tenantQ is one tenant's sub-queue in weighted fair-share mode.
type tenantQ struct {
	subQueue
	id      uint8
	weight  float64
	deficit float64
	length  int
}

// item is one queued request: its element set, arrival sequence number,
// the caller's payload and DRR cost, and its FIFO link.
type item struct {
	elems []int
	seq   uint64
	data  any
	cost  float64 // DRR dispatch cost (bytes); 1 when untracked
	next  *item
}

// fifo is an intrusive arrival-order list of items.
type fifo struct{ head, tail *item }

func (f *fifo) push(it *item) {
	if f.tail != nil {
		f.tail.next = it
	} else {
		f.head = it
	}
	f.tail = it
}

func (f *fifo) pop() *item {
	it := f.head
	f.head = it.next
	if f.head == nil {
		f.tail = nil
	}
	it.next = nil
	return it
}

// group is the arrival-order FIFO of the queued requests over one element
// set. A non-empty group sits in exactly one place: its index's candidate
// heap, or one element's parked list.
type group struct {
	fifo
	parkNext *group // next group parked on the same element
}

// swtfIndex is the SWTF sub-queue. Its structures are allocated on the
// first push, so FCFS queues and idle tenants pay nothing for them.
// Groups are looked up without hashing for single-element sets — every
// request of a page-sized workload — and through a map keyed by the
// set's bitmap otherwise; neither shrinks.
type swtfIndex struct {
	single  []*group          // per element: the group of the set {e}
	groups  map[string]*group // multi-element set bitmap -> group
	ready   []candidate       // candidate min-heap keyed by head Seq
	blocked []*group          // per element: head of its parked list
	key     []byte            // bitmap scratch for allocation-free lookup
}

// candidate is a ready-heap slot: a group and its head's Seq, held inline
// so sifting compares without dereferencing.
type candidate struct {
	seq uint64
	g   *group
}

// wake records that an element's busy horizon ends at `at`; processing it
// then releases the element's parked groups. Horizons only move while
// an element is idle, so the record matching the current horizon is
// always present (stale records are skipped, never trusted).
type wake struct {
	at   sim.Time
	elem int
}

// NewQueue returns an empty queue dispatching under policy over the given
// number of parallel elements, all idle.
func NewQueue(policy Policy, elements int) *Queue {
	return &Queue{policy: policy, busyUntil: make([]sim.Time, elements)}
}

// Policy reports the dispatch discipline.
func (q *Queue) Policy() Policy { return q.policy }

// Len reports the number of queued (not yet dispatched) requests.
func (q *Queue) Len() int { return q.length }

// Busy reports element e's busy horizon: the time at which it becomes
// available again (in the past or present when idle).
func (q *Queue) Busy(e int) sim.Time { return q.busyUntil[e] }

// Idle reports whether element e is available at now.
func (q *Queue) Idle(e int, now sim.Time) bool { return q.busyUntil[e] <= now }

// SetBusy marks element e busy until the given horizon. Horizons only
// grow: marking an element busy until a time before its current horizon
// is a no-op.
func (q *Queue) SetBusy(e int, until sim.Time) {
	if until <= q.busyUntil[e] {
		return
	}
	q.busyUntil[e] = until
	if q.policy == SWTF {
		q.pushWake(wake{at: until, elem: e})
	}
}

// SetTenantWeight switches the queue into weighted fair-share mode and
// sets one tenant's scheduler weight (> 0; larger shares dispatch more
// bytes). Call it at device construction time, before any Push: tenants
// seen later without an explicit weight default to 1. Without any call,
// the fair-share layer is absent and dispatch is exactly the legacy
// single-tenant policy.
func (q *Queue) SetTenantWeight(tenant uint8, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	q.fair = true
	q.tenantFor(tenant).weight = weight
}

// Fair reports whether weighted fair-share dispatch is engaged.
func (q *Queue) Fair() bool { return q.fair }

// tenantFor returns tenant t's sub-queue, inserting it into the ring in
// sorted position on first sight.
func (q *Queue) tenantFor(t uint8) *tenantQ {
	i := 0
	for i < len(q.tens) && q.tens[i].id < t {
		i++
	}
	if i < len(q.tens) && q.tens[i].id == t {
		return q.tens[i]
	}
	tq := &tenantQ{id: t, weight: 1}
	q.tens = append(q.tens, nil)
	copy(q.tens[i+1:], q.tens[i:])
	q.tens[i] = tq
	if i <= q.rr && len(q.tens) > 1 {
		q.rr++ // keep the DRR pointer on the tenant it was on
	}
	return tq
}

// Push enqueues a request occupying the given elements and returns its
// arrival sequence number. The element slice is copied into a pooled
// item; the caller may reuse it. Ops pushed this way are untagged
// (tenant 0, unit cost); media models that know the op use PushT.
func (q *Queue) Push(elems []int, data any) uint64 {
	return q.PushT(elems, data, 0, 1)
}

// PushT is Push with the op's tenant class and dispatch cost (bytes; 0
// is treated as 1). In single-tenant mode both are ignored and the push
// is exactly the legacy one; in weighted mode the request joins its
// tenant's sub-queue.
func (q *Queue) PushT(elems []int, data any, tenant uint8, cost int64) uint64 {
	it := q.take()
	it.elems = append(it.elems[:0], elems...)
	q.seq++
	it.seq = q.seq
	it.data = data
	if cost <= 0 {
		cost = 1
	}
	it.cost = float64(cost)
	q.length++
	sub := &q.sub
	if q.fair {
		tq := q.tenantFor(tenant)
		tq.length++
		sub = &tq.subQueue
	}
	if q.policy == SWTF {
		sub.swtf.push(it, len(q.busyUntil))
	} else {
		sub.fifo.push(it)
	}
	return it.seq
}

// Pop removes and returns the payload of the next dispatchable request,
// or (nil, false) if nothing may dispatch at now. It never allocates.
func (q *Queue) Pop(now sim.Time) (any, bool) {
	if q.policy == SWTF {
		q.release(now)
	}
	if q.fair {
		return q.popFair(now)
	}
	if q.head(&q.sub, now) == nil {
		return nil, false
	}
	return q.finishPop(q.remove(&q.sub))
}

// head returns sub-queue s's dispatchable head at now, or nil: under
// SWTF the lowest-Seq request whose elements are all idle, under FCFS
// the arrival head if its elements are idle. release must have run.
func (q *Queue) head(s *subQueue, now sim.Time) *item {
	if q.policy == SWTF {
		return s.swtf.head(q.busyUntil, now)
	}
	if it := s.fifo.head; it != nil && blocker(it.elems, q.busyUntil, now) < 0 {
		return it
	}
	return nil
}

// remove detaches and returns the head that the preceding head call
// found dispatchable.
func (q *Queue) remove(s *subQueue) *item {
	if q.policy == SWTF {
		return s.swtf.pop()
	}
	return s.fifo.pop()
}

// blocker returns the element of elems with the latest horizon past now,
// or -1 when every element is idle (the legacy Entry.Wait is zero).
func blocker(elems []int, busyUntil []sim.Time, now sim.Time) int {
	worst, horizon := -1, now
	for _, e := range elems {
		if b := busyUntil[e]; b > horizon {
			worst, horizon = e, b
		}
	}
	return worst
}

// popFair is the weighted deficit-round-robin dispatch: visit tenants in
// ring order from the DRR pointer, dispatch the first whose policy head
// is dispatchable and whose deficit covers its cost; when every
// dispatchable head is deficit-blocked, refill each such tenant by
// quantum x weight and rescan. The refill loop terminates because
// weights are positive, and it returns false only when no tenant has a
// dispatchable head — the Driver contract. Never allocates.
func (q *Queue) popFair(now sim.Time) (any, bool) {
	n := len(q.tens)
	if n == 0 {
		return nil, false
	}
	for {
		blockedOnDeficit := false
		for i := 0; i < n; i++ {
			idx := q.rr + i
			if idx >= n {
				idx -= n
			}
			tq := q.tens[idx]
			it := q.head(&tq.subQueue, now)
			if it == nil {
				continue
			}
			if tq.deficit >= it.cost {
				tq.deficit -= it.cost
				q.rr = idx // keep serving this tenant while its deficit lasts
				q.remove(&tq.subQueue)
				if tq.length--; tq.length == 0 {
					tq.deficit = 0 // classic DRR: no credit hoarding while idle
				}
				return q.finishPop(it)
			}
			blockedOnDeficit = true
		}
		if !blockedOnDeficit {
			return nil, false
		}
		for _, tq := range q.tens {
			if q.head(&tq.subQueue, now) != nil {
				tq.deficit += drrQuantum * tq.weight
			}
		}
	}
}

// finishPop detaches the payload and recycles the item.
func (q *Queue) finishPop(it *item) (any, bool) {
	data := it.data
	q.length--
	q.put(it)
	return data, true
}

// release processes due wake records: every element whose horizon has
// passed wakes the groups parked on it, in every sub-queue.
func (q *Queue) release(now sim.Time) {
	for len(q.wakes) > 0 && q.wakes[0].at <= now {
		w := q.popWake()
		if q.busyUntil[w.elem] > now {
			// Stale record: the element was re-marked busy; the newer
			// record carries its current horizon.
			continue
		}
		q.sub.swtf.wake(w.elem, q.busyUntil, now)
		for _, tq := range q.tens {
			tq.swtf.wake(w.elem, q.busyUntil, now)
		}
	}
}

// ---- item pool ----

func (q *Queue) take() *item {
	if it := q.free; it != nil {
		q.free = it.next
		it.next = nil
		return it
	}
	return &item{}
}

func (q *Queue) put(it *item) {
	it.data = nil // release the payload to the collector
	it.cost = 0
	it.next = q.free
	q.free = it
}

// ---- SWTF element-set index ----

// push appends it to the group of its element set, making the group a
// candidate if it was empty.
func (x *swtfIndex) push(it *item, elements int) {
	if x.groups == nil {
		x.single = make([]*group, elements)
		x.groups = make(map[string]*group)
		x.blocked = make([]*group, elements)
		x.key = make([]byte, (elements+7)/8)
	}
	g := x.groupOf(it.elems)
	wasEmpty := g.head == nil
	g.push(it)
	if wasEmpty {
		x.pushReady(g)
	}
}

// groupOf returns the group of elems' set, creating it on first sight.
// The map key is the set's bitmap, so element order does not matter, and
// a lookup of an existing group does not allocate. (A repeated element
// can split a set across two groups; each still holds one set in Seq
// order, so dispatch is unchanged.)
func (x *swtfIndex) groupOf(elems []int) *group {
	if len(elems) == 1 {
		g := x.single[elems[0]]
		if g == nil {
			g = &group{}
			x.single[elems[0]] = g
		}
		return g
	}
	for _, e := range elems {
		x.key[e>>3] |= 1 << (e & 7)
	}
	g := x.groups[string(x.key)]
	if g == nil {
		g = &group{}
		x.groups[string(x.key)] = g
	}
	for _, e := range elems {
		x.key[e>>3] = 0
	}
	return g
}

// head returns the lowest-Seq request whose elements are all idle at now,
// or nil. Candidate groups found busy are parked on their latest-busy
// element; the wake record for that element's horizon brings them back.
func (x *swtfIndex) head(busyUntil []sim.Time, now sim.Time) *item {
	for len(x.ready) > 0 {
		g := x.ready[0].g
		e := blocker(g.head.elems, busyUntil, now)
		if e < 0 {
			return g.head
		}
		x.popReady()
		x.park(g, e)
	}
	return nil
}

func (x *swtfIndex) park(g *group, e int) {
	g.parkNext = x.blocked[e]
	x.blocked[e] = g
}

// pop removes the request head just returned; its group stays a
// candidate, re-keyed by its next request, unless it is now empty.
func (x *swtfIndex) pop() *item {
	g := x.ready[0].g
	it := g.pop()
	if g.head == nil {
		x.popReady()
	} else {
		x.ready[0].seq = g.head.seq
		x.siftDown(0)
	}
	return it
}

// wake releases the groups parked on element e, idle at now: each one
// still blocked by another element moves straight to that element's
// parked list, the rest become candidates.
func (x *swtfIndex) wake(e int, busyUntil []sim.Time, now sim.Time) {
	if x.blocked == nil {
		return
	}
	g := x.blocked[e]
	x.blocked[e] = nil
	for g != nil {
		next := g.parkNext
		if b := blocker(g.head.elems, busyUntil, now); b >= 0 {
			x.park(g, b)
		} else {
			g.parkNext = nil
			x.pushReady(g)
		}
		g = next
	}
}

func (x *swtfIndex) pushReady(g *group) {
	x.ready = append(x.ready, candidate{g.head.seq, g})
	i := len(x.ready) - 1
	for i > 0 {
		p := (i - 1) / 2
		if x.ready[p].seq <= x.ready[i].seq {
			return
		}
		x.ready[p], x.ready[i] = x.ready[i], x.ready[p]
		i = p
	}
}

func (x *swtfIndex) popReady() {
	last := len(x.ready) - 1
	x.ready[0] = x.ready[last]
	x.ready[last] = candidate{}
	x.ready = x.ready[:last]
	x.siftDown(0)
}

func (x *swtfIndex) siftDown(i int) {
	ready := x.ready
	n := len(ready)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && ready[l].seq < ready[min].seq {
			min = l
		}
		if r < n && ready[r].seq < ready[min].seq {
			min = r
		}
		if min == i {
			return
		}
		ready[i], ready[min] = ready[min], ready[i]
		i = min
	}
}

// ---- (horizon, element) wake heap ----

func (q *Queue) pushWake(w wake) {
	q.wakes = append(q.wakes, w)
	i := len(q.wakes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.wakes[p].at <= q.wakes[i].at {
			break
		}
		q.wakes[p], q.wakes[i] = q.wakes[i], q.wakes[p]
		i = p
	}
}

func (q *Queue) popWake() wake {
	w := q.wakes[0]
	last := len(q.wakes) - 1
	q.wakes[0] = q.wakes[last]
	q.wakes = q.wakes[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.wakes[l].at < q.wakes[min].at {
			min = l
		}
		if r < n && q.wakes[r].at < q.wakes[min].at {
			min = r
		}
		if min == i {
			break
		}
		q.wakes[i], q.wakes[min] = q.wakes[min], q.wakes[i]
		i = min
	}
	return w
}
