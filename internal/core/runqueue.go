package core

// runQueue is the scheduler's ready pool: one intrusive doubly-linked
// list per priority level (§4.3). Enqueue, dequeue and removal are all
// O(1) — the links live inside the Thread itself, so Kill of a ready
// thread never scans a slice. Within one level threads run round-robin
// (pop from the head, re-enqueue at the tail); across levels the
// highest-priority non-empty list wins, except that a lower-priority
// head left waiting for agingThreshold consecutive picks preempts once
// (starvation aging), which keeps low-priority threads live without
// giving up strict priority in the common case.
//
// Priorities are JVM-style: 1 is the lowest level, levels() the
// highest, and a larger number is more urgent.
type runQueue struct {
	levels []listHead
	size   int

	// seq counts pop() calls; each enqueue stamps the thread with the
	// current value, so (seq - enqSeq) is the number of scheduling
	// decisions a queued thread has sat through — the deterministic
	// "age" that starvation aging compares against agingThreshold.
	seq            uint64
	agingThreshold uint64 // 0 disables aging
}

type listHead struct {
	head, tail *Thread
}

func newRunQueue(levels int, aging uint64) *runQueue {
	return &runQueue{levels: make([]listHead, levels), agingThreshold: aging}
}

// clampPrio forces p into the valid 1..levels range.
func (q *runQueue) clampPrio(p int) int {
	if p < 1 {
		return 1
	}
	if p > len(q.levels) {
		return len(q.levels)
	}
	return p
}

// push appends t to the tail of its priority level's list.
func (q *runQueue) push(t *Thread) {
	if t.inQueue {
		panic("core: thread " + t.Name + " enqueued twice")
	}
	l := &q.levels[t.prio-1]
	t.inQueue = true
	t.enqSeq = q.seq
	t.qprev = l.tail
	t.qnext = nil
	if l.tail != nil {
		l.tail.qnext = t
	} else {
		l.head = t
	}
	l.tail = t
	q.size++
}

// remove unlinks t from its level in O(1); a no-op if t is not queued.
func (q *runQueue) remove(t *Thread) {
	if !t.inQueue {
		return
	}
	l := &q.levels[t.prio-1]
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		l.head = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		l.tail = t.qprev
	}
	t.qprev, t.qnext = nil, nil
	t.inQueue = false
	q.size--
}

// pop removes and returns the next thread to run: the head of the
// highest non-empty priority level, unless some lower level's head has
// aged past agingThreshold, in which case the most-starved such head
// (smallest enqueue sequence) runs instead. Deterministic: no clocks,
// no randomness — only enqueue order and pick counts.
func (q *runQueue) pop() *Thread {
	if q.size == 0 {
		return nil
	}
	q.seq++
	var best *Thread    // head of the highest non-empty level
	var starved *Thread // most-starved aged head at a lower level
	for lvl := len(q.levels) - 1; lvl >= 0; lvl-- {
		h := q.levels[lvl].head
		if h == nil {
			continue
		}
		if best == nil {
			best = h
			if q.agingThreshold == 0 {
				break
			}
			continue
		}
		if q.seq-h.enqSeq >= q.agingThreshold && (starved == nil || h.enqSeq < starved.enqSeq) {
			starved = h
		}
	}
	pick := best
	if starved != nil {
		pick = starved
	}
	q.remove(pick)
	return pick
}

// depth returns the number of queued threads.
func (q *runQueue) depth() int { return q.size }

// levelDepths counts the queued threads per priority level (index 0 is
// priority 1, the least urgent) — post-mortem and /debug/threads data.
func (q *runQueue) levelDepths() []int {
	out := make([]int, len(q.levels))
	for lvl := range q.levels {
		for t := q.levels[lvl].head; t != nil; t = t.qnext {
			out[lvl]++
		}
	}
	return out
}
