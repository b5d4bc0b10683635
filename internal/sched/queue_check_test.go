package sched

import (
	"fmt"

	"ossd/internal/sim"
)

// check verifies the queue's structural invariants and returns the first
// violation, or nil:
//
//   - Len equals the number of requests held by the FIFOs and groups;
//   - tenant lengths sum to Len, and each matches its sub-queue;
//   - every group holds requests over one element set, in Seq order;
//   - every non-empty group is in exactly one place: its index's
//     candidate heap or one element's parked list; no empty group is
//     indexed;
//   - the candidate heap is ordered by, and keyed with, its groups' head
//     Seqs;
//   - every parked group's element has a wake record at its current
//     horizon — so the element is busy at now or the record is due, and
//     the group cannot be stranded.
func (q *Queue) check(now sim.Time) error {
	n, err := q.checkSub(&q.sub, now)
	if err != nil {
		return err
	}
	if q.fair && n != 0 {
		return fmt.Errorf("fair-share queue holds %d requests outside its tenants", n)
	}
	tenants := 0
	for _, tq := range q.tens {
		tn, err := q.checkSub(&tq.subQueue, now)
		if err != nil {
			return fmt.Errorf("tenant %d: %v", tq.id, err)
		}
		if tn != tq.length {
			return fmt.Errorf("tenant %d: length %d, sub-queue holds %d", tq.id, tq.length, tn)
		}
		tenants += tq.length
		n += tn
	}
	if q.fair && tenants != q.length {
		return fmt.Errorf("tenant lengths sum to %d, Len %d", tenants, q.length)
	}
	if n != q.length {
		return fmt.Errorf("Len %d, index holds %d", q.length, n)
	}
	return nil
}

// checkSub verifies one sub-queue and returns the number of requests it
// holds.
func (q *Queue) checkSub(s *subQueue, now sim.Time) (int, error) {
	n := 0
	var last uint64
	for it := s.fifo.head; it != nil; it = it.next {
		if it.seq <= last {
			return 0, fmt.Errorf("FIFO out of arrival order at seq %d", it.seq)
		}
		if it.next == nil && s.fifo.tail != it {
			return 0, fmt.Errorf("FIFO tail is not its last item")
		}
		last = it.seq
		n++
	}
	x := &s.swtf
	places := map[*group]int{}
	for i, c := range x.ready {
		if c.g.head == nil {
			return 0, fmt.Errorf("empty group is a candidate")
		}
		if c.seq != c.g.head.seq {
			return 0, fmt.Errorf("candidate keyed %d, group head is seq %d", c.seq, c.g.head.seq)
		}
		if i > 0 && x.ready[(i-1)/2].seq > c.seq {
			return 0, fmt.Errorf("candidate heap out of order at slot %d", i)
		}
		places[c.g]++
	}
	for e, g := range x.blocked {
		for ; g != nil; g = g.parkNext {
			if g.head == nil {
				return 0, fmt.Errorf("empty group parked on element %d", e)
			}
			if !q.hasWake(e, q.busyUntil[e]) {
				return 0, fmt.Errorf("group parked on element %d (horizon %v, now %v) has no wake record",
					e, q.busyUntil[e], now)
			}
			places[g]++
		}
	}
	keyed := map[*group]string{}
	for e, g := range x.single {
		if g != nil {
			keyed[g] = setKey([]int{e}, len(q.busyUntil))
		}
	}
	for key, g := range x.groups {
		keyed[g] = key
	}
	for g, key := range keyed {
		if g.head == nil {
			continue // an empty group is in places only if indexed
		}
		if places[g] != 1 {
			return 0, fmt.Errorf("non-empty group (seq %d) indexed %d times", g.head.seq, places[g])
		}
		last = 0
		for it := g.head; it != nil; it = it.next {
			if setKey(it.elems, len(q.busyUntil)) != key {
				return 0, fmt.Errorf("seq %d over %v is in another set's group", it.seq, it.elems)
			}
			if it.seq <= last {
				return 0, fmt.Errorf("group out of arrival order at seq %d", it.seq)
			}
			if it.next == nil && g.tail != it {
				return 0, fmt.Errorf("group tail is not its last item")
			}
			last = it.seq
			n++
		}
		delete(places, g)
	}
	if len(places) != 0 {
		return 0, fmt.Errorf("%d indexed groups are empty or unknown to the group lookup", len(places))
	}
	return n, nil
}

// hasWake reports whether a wake record for element e at horizon at is
// pending.
func (q *Queue) hasWake(e int, at sim.Time) bool {
	for _, w := range q.wakes {
		if w.elem == e && w.at == at {
			return true
		}
	}
	return false
}

// setKey is the group-map key of an element set: its bitmap.
func setKey(elems []int, elements int) string {
	key := make([]byte, (elements+7)/8)
	for _, e := range elems {
		key[e>>3] |= 1 << (e & 7)
	}
	return string(key)
}
