// Package rt is a real (non-simulated) message-passing runtime between
// goroutines, built the way Nemesis is built. Tiny messages travel through
// per-pair single-slot fastboxes that bypass the shared queue entirely;
// small messages travel eagerly through pooled envelopes whose copy cells
// they own (the double-copy path, allocation-free in steady state); large
// messages use a rendezvous in which the receiver, the sender, and — under
// Offload — workers playing the role of KNEM's kernel thread / I/OAT
// engine claim fixed-size chunks of the transfer concurrently. Because
// goroutines share one address space, the single-copy transfer needs no
// kernel assistance here: rt is the paper's design transplanted to where
// Go can express it natively.
//
// The package is self-contained and usable as a library; the benchmarks at
// the repository root measure its eager-vs-single-copy crossover for real.
package rt

import "sync/atomic"

// qnode is a queue node of the generic queue. Nodes are heap-allocated per
// push; the envelope path uses the intrusive msgQueue below instead.
type qnode[T any] struct {
	next  atomic.Pointer[qnode[T]]
	value T
}

// Queue is an intrusive MPSC queue (Vyukov's algorithm, the same shape as
// the Nemesis lock-free queue): Push is wait-free for any number of
// producers; Pop must be called by a single consumer.
type Queue[T any] struct {
	head atomic.Pointer[qnode[T]] // producers swap the head
	tail *qnode[T]                // consumer-owned
	stub qnode[T]
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.head.Store(&q.stub)
	q.tail = &q.stub
	return q
}

// Push enqueues v. Safe for concurrent producers.
func (q *Queue[T]) Push(v T) {
	n := &qnode[T]{value: v}
	prev := q.head.Swap(n)
	prev.next.Store(n)
}

// Pop dequeues the oldest value. Single consumer only. It returns false
// when the queue is observably empty (a concurrent Push may be mid-flight;
// callers poll or park, exactly like a Nemesis progress loop).
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	tail := q.tail
	next := tail.next.Load()
	if tail == &q.stub {
		if next == nil {
			return zero, false
		}
		q.tail = next
		tail = next
		next = tail.next.Load()
	}
	if next != nil {
		q.tail = next
		v := tail.value
		tail.value = zero // release payload references
		return v, true
	}
	// tail is the last visible node: re-push the stub to detect the end.
	if q.head.Load() != tail {
		return zero, false // a push is in flight; try again later
	}
	q.stub.next.Store(nil)
	prev := q.head.Swap(&q.stub)
	prev.next.Store(&q.stub)
	next = tail.next.Load()
	if next != nil {
		q.tail = next
		v := tail.value
		tail.value = zero
		return v, true
	}
	return zero, false
}

// Empty reports whether the queue appears empty to the consumer.
func (q *Queue[T]) Empty() bool {
	return q.tail == &q.stub && q.tail.next.Load() == nil && q.head.Load() == q.tail
}

// msgQueue is the intrusive variant of Queue specialized to message
// envelopes: the MPSC link lives inside the message itself (message.qnext),
// so Push allocates nothing — the property Nemesis gets from placing queue
// links in its shared-memory cells. The same link threads a rank's envelope
// free pool, because an envelope is never in both queues at once.
//
// Producers write head and, when they find the queue closed on it, the
// stub's link; the consumer alone writes tail. The padding keeps tail off
// the producers' lines, and keeps whatever the embedding struct places
// after the queue off tail's.
type msgQueue struct {
	head atomic.Pointer[message] // producers swap the head
	stub message
	_    [cacheLine]byte
	tail *message // consumer-owned
	_    [cacheLine]byte
}

// init readies the queue (the zero value is not usable: head must point at
// the embedded stub).
func (q *msgQueue) init() {
	q.head.Store(&q.stub)
	q.tail = &q.stub
}

// Push enqueues m. Safe for concurrent producers.
func (q *msgQueue) Push(m *message) {
	m.qnext.Store(nil)
	prev := q.head.Swap(m)
	prev.qnext.Store(m)
}

// Pop dequeues the oldest envelope, or nil when the queue is observably
// empty. Single consumer only. Unlike the generic queue, the returned node
// leaves the queue entirely (the embedded stub is re-pushed to close the
// tail), so the envelope is immediately reusable.
func (q *msgQueue) Pop() *message {
	tail := q.tail
	next := tail.qnext.Load()
	if tail == &q.stub {
		if next == nil {
			return nil
		}
		q.tail = next
		tail = next
		next = tail.qnext.Load()
	}
	if next != nil {
		q.tail = next
		return tail
	}
	if q.head.Load() != tail {
		return nil // a push is in flight; try again later
	}
	q.Push(&q.stub)
	next = tail.qnext.Load()
	if next != nil {
		q.tail = next
		return tail
	}
	return nil
}

// Empty reports whether the queue appears empty to the consumer.
func (q *msgQueue) Empty() bool {
	return q.tail == &q.stub && q.tail.qnext.Load() == nil && q.head.Load() == q.tail
}
