package rt

import "sync/atomic"

// cacheLine is the coherence granule the shared-state layouts are padded
// to: a field written by one goroutine and a field written by another sit
// at least this far apart, so neither write invalidates the other's line.
const cacheLine = 64

// defaultFastboxBytes is the largest message the per-pair fastboxes carry
// when the Config leaves FastboxBytes zero. Small, like the paper's
// fastboxes: the win is skipping the shared queue and the envelope for the
// latency-critical sizes, not moving bulk data.
const defaultFastboxBytes = 1024

// fastboxHeader is the size of the slot's control fields; the inline
// payload starts right after them, inside the flag's cache line.
const fastboxHeader = 24

// fastboxInline is the payload capacity of one slot: the default cap
// rounded up so the whole slot is a whole number of cache lines.
const fastboxInline = (fastboxHeader+defaultFastboxBytes+cacheLine-1)/cacheLine*cacheLine - fastboxHeader

// fastbox is a single-slot mailbox for one ordered (sender, receiver)
// pair, the rt analogue of Nemesis' cache-line-sized fastboxes. state is a
// two-phase seqlock counter: even means empty (only the sending rank may
// fill), odd means full (only the receiving rank may drain), and each
// transition increments it. seq carries the message's position in the
// pair's send order so the receiver can merge fastbox arrivals with
// shared-queue arrivals without breaking FIFO.
//
// The flag, the header and the first bytes of the payload share one cache
// line and the rest of the payload follows inline, so a delivery moves the
// lines the message occupies and nothing else: a message of up to 40 bytes
// is a single line, 64 bytes is two. The slot is a whole number of lines
// (TestFastboxLineAligned pins the layout), so adjacent boxes in a rank's
// inbox never share one.
type fastbox struct {
	state atomic.Uint32 // even: free, odd: full
	n     int32
	seq   uint64
	tag   int32 // checkTag bounds every tag to 32 bits
	_     int32
	data  [fastboxInline]byte
}

// trySend deposits one message if the slot is free. Only the sending
// rank's goroutine may call this for its own (sender→receiver) box, and
// buf must fit the configured cap.
func (fb *fastbox) trySend(seq uint64, tag int, buf []byte) bool {
	st := fb.state.Load()
	if st&1 != 0 {
		return false // still occupied: fall back to the shared queue
	}
	fb.seq = seq
	fb.tag = int32(tag)
	fb.n = int32(len(buf))
	copy(fb.data[:], buf)
	fb.state.Store(st + 1)
	return true
}
