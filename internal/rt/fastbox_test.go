package rt

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"knemesis/internal/comm"
)

// A fastbox delivery moves the lines its message occupies and nothing
// else: the flag, seq, tag and length share the first cache line with the
// start of the inline payload, the slot is a whole number of lines (so one
// box's flag never shares a line with its neighbour's payload), the inline
// payload holds the default cap, and every inbox starts on a line
// boundary.
func TestFastboxLineAligned(t *testing.T) {
	var fb fastbox
	if size := unsafe.Sizeof(fb); size%cacheLine != 0 {
		t.Errorf("fastbox is %d bytes, not a multiple of the %d-byte cache line", size, cacheLine)
	}
	for name, end := range map[string]uintptr{
		"state": unsafe.Offsetof(fb.state) + unsafe.Sizeof(fb.state),
		"seq":   unsafe.Offsetof(fb.seq) + unsafe.Sizeof(fb.seq),
		"tag":   unsafe.Offsetof(fb.tag) + unsafe.Sizeof(fb.tag),
		"n":     unsafe.Offsetof(fb.n) + unsafe.Sizeof(fb.n),
	} {
		if end > cacheLine {
			t.Errorf("fastbox.%s ends at byte %d, outside the flag's cache line", name, end)
		}
	}
	if off := unsafe.Offsetof(fb.data); off != fastboxHeader {
		t.Errorf("inline payload starts at byte %d, want %d", off, fastboxHeader)
	}
	if len(fb.data) < defaultFastboxBytes {
		t.Errorf("inline payload holds %d bytes, below the %d-byte default cap", len(fb.data), defaultFastboxBytes)
	}
	for _, n := range []int{1, 2, 3, 8} {
		w := NewWorld(n, Config{})
		for r := 0; r < n; r++ {
			if addr := uintptr(unsafe.Pointer(&w.Rank(r).inbox[0])); addr%cacheLine != 0 {
				t.Errorf("%d ranks: rank %d's inbox starts at %#x, not on a cache line", n, r, addr)
			}
		}
		w.Close()
	}
}

// What senders write — the queue heads, the envelope pool's head, the
// sleeping flag they read on every send — never shares a cache line with
// what the owner writes on every operation, whatever the struct's base
// alignment.
func TestRankSharedStateSeparated(t *testing.T) {
	var r Rank
	type span struct {
		name     string
		off, len uintptr
	}
	qOff, fOff := unsafe.Offsetof(r.q), unsafe.Offsetof(r.freeq)
	shared := []span{
		{"sleeping", unsafe.Offsetof(r.sleeping), unsafe.Sizeof(r.sleeping)},
		{"q.head+stub", qOff, unsafe.Offsetof(r.q.stub) + unsafe.Sizeof(r.q.stub)},
		{"freeq.head+stub", fOff, unsafe.Offsetof(r.freeq.stub) + unsafe.Sizeof(r.freeq.stub)},
	}
	private := []span{
		{"q.tail", qOff + unsafe.Offsetof(r.q.tail), unsafe.Sizeof(r.q.tail)},
		{"freeq.tail", fOff + unsafe.Offsetof(r.freeq.tail), unsafe.Sizeof(r.freeq.tail)},
		{"postedN", unsafe.Offsetof(r.postedN), unsafe.Sizeof(r.postedN)},
		{"unexpN", unsafe.Offsetof(r.unexpN), unsafe.Sizeof(r.unexpN)},
		{"parkReason", unsafe.Offsetof(r.parkReason), unsafe.Sizeof(r.parkReason)},
		{"stats", unsafe.Offsetof(r.stats), unsafe.Sizeof(r.stats)},
	}
	// Two byte ranges can never share a line iff the last byte of the
	// lower one is at least a line below the first byte of the upper.
	apart := func(a, b span) bool {
		if a.off > b.off {
			a, b = b, a
		}
		return b.off >= a.off+a.len-1+cacheLine
	}
	for _, s := range shared {
		for _, p := range private {
			if !apart(s, p) {
				t.Errorf("%s [%d,+%d) may share a cache line with %s [%d,+%d)",
					s.name, s.off, s.len, p.name, p.off, p.len)
			}
		}
	}
}

// Each rank writes its per-peer sequence counters and stream state on
// every message. NewWorld allocates all ranks from one goroutine, so
// unpadded, these small slices would land on the same cache lines as the
// neighbouring ranks' ones.
func TestRankSlicesOwnTheirLines(t *testing.T) {
	type span struct {
		rank      int
		name      string
		first, to uintptr // the lines [first, to] the slice touches
	}
	lines := func(rank int, name string, p unsafe.Pointer, bytes uintptr) span {
		a := uintptr(p)
		return span{rank, name, a / cacheLine, (a + bytes - 1) / cacheLine}
	}
	for n := 2; n <= 4; n++ {
		w := NewWorld(n, Config{})
		var spans []span
		for _, r := range w.ranks {
			spans = append(spans,
				lines(r.rank, "sendSeq", unsafe.Pointer(&r.sendSeq[0]), uintptr(n)*unsafe.Sizeof(r.sendSeq[0])),
				lines(r.rank, "recvSeq", unsafe.Pointer(&r.recvSeq[0]), uintptr(n)*unsafe.Sizeof(r.recvSeq[0])),
				lines(r.rank, "streams", unsafe.Pointer(&r.streams[0]), uintptr(n)*unsafe.Sizeof(r.streams[0])))
		}
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if a.rank != b.rank && a.first <= b.to && b.first <= a.to {
					t.Errorf("%d ranks: rank %d's %s shares a cache line with rank %d's %s",
						n, a.rank, a.name, b.rank, b.name)
				}
			}
		}
		w.Close()
	}
}

// A burst of small sends with the receiver away fills the single-slot
// fastbox after one message; the overflow must fall back to the shared
// queue and still be delivered in send order, interleaved correctly with
// the message parked in the fastbox (the sequence-merged drain).
func TestFastboxOverflowFallsBackToQueueInOrder(t *testing.T) {
	const msgs = 64
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				r.Send(1, 0, pattern(i, 64))
			}
		} else {
			// Give the burst time to overflow the fastbox before draining.
			time.Sleep(20 * time.Millisecond)
			buf := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				r.Recv(0, 0, buf)
				if !bytes.Equal(buf, pattern(i, 64)) {
					t.Errorf("message %d out of order or corrupted", i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := w.FastboxMsgs.Load()
	if fb < 1 {
		t.Errorf("no message used the fastbox (FastboxMsgs = %d)", fb)
	}
	if fb >= msgs {
		t.Errorf("all %d burst messages claim the single-slot fastbox (FastboxMsgs = %d)", msgs, fb)
	}
	if w.EagerMsgs.Load() != msgs {
		t.Errorf("EagerMsgs = %d, want %d", w.EagerMsgs.Load(), msgs)
	}
}

// With fastboxes disabled every eager message must take the shared queue;
// with them enabled, a lock-step ping-pong should use them for every
// message (the slot is always free when the sender arrives).
func TestFastboxConfigKnob(t *testing.T) {
	run := func(cfg Config) *World {
		w := NewWorld(2, cfg)
		err := w.Run(func(r *Rank) {
			buf := make([]byte, 128)
			for i := 0; i < 10; i++ {
				if r.ID() == 0 {
					r.Send(1, 0, buf)
					r.Recv(1, 0, buf)
				} else {
					r.Recv(0, 0, buf)
					r.Send(0, 0, buf)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if w := run(Config{FastboxBytes: -1}); w.FastboxMsgs.Load() != 0 {
		t.Errorf("disabled fastboxes still carried %d messages", w.FastboxMsgs.Load())
	}
	if w := run(Config{}); w.FastboxMsgs.Load() != 20 {
		t.Errorf("lock-step ping-pong used the fastbox for %d of 20 messages", w.FastboxMsgs.Load())
	}
}

// The envelope pool must only ever hold exactly-CellBytes cells: transient
// oversized buffers (unexpected stream reassembly) are dropped at release,
// never pooled — the fix for the seed's cell-pool pollution, enforced
// structurally and checked here.
func TestEnvelopePoolKeepsOnlyCellSizedBuffers(t *testing.T) {
	const cell = 4096
	w := NewWorld(2, Config{Large: Eager, CellBytes: cell, RndvThreshold: cell})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, pattern(1, 10*cell)) // streamed oversized eager
			r.Send(1, 1, pattern(2, 100))     // small eager
		} else {
			// Let both arrive unexpected (the oversized one reassembles
			// into a transient full-size buffer), then receive them.
			time.Sleep(10 * time.Millisecond)
			buf := make([]byte, 10*cell)
			st := r.Recv(0, 0, buf)
			if st.N != 10*cell || !bytes.Equal(buf, pattern(1, 10*cell)) {
				t.Errorf("oversized eager corrupted (status %+v)", st)
			}
			r.Recv(0, 1, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The world is idle now; inspect every rank's pool directly.
	for _, r := range w.ranks {
		for m := r.freeq.Pop(); m != nil; m = r.freeq.Pop() {
			if m.data != nil {
				t.Errorf("rank %d pooled an envelope with live data (%d bytes)", r.rank, len(m.data))
			}
			if m.cell != nil && cap(m.cell) != cell {
				t.Errorf("rank %d pooled a %d-byte cell, want exactly %d", r.rank, cap(m.cell), cell)
			}
		}
	}
}

// Forced dual-copy (SenderCopy=1 regardless of GOMAXPROCS): the waiting
// sender claims chunks alongside the receiver; the transfer must stay
// intact for single transfers and concurrent same-pair transfers.
func TestDualCopyRendezvousForced(t *testing.T) {
	for _, mode := range []LargeMode{SingleCopy, Offload} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const n = 3 * 1024 * 1024
			w := NewWorld(2, Config{Large: mode, SenderCopy: 1, CellBytes: 64 * 1024})
			err := w.Run(func(r *Rank) {
				if r.ID() == 0 {
					r.Send(1, 0, pattern(1, n))
					a := r.Isend(1, 1, pattern(2, n))
					b := r.Isend(1, 2, pattern(3, n))
					r.Wait(a)
					r.Wait(b)
				} else {
					buf := make([]byte, n)
					r.Recv(0, 0, buf)
					if !bytes.Equal(buf, pattern(1, n)) {
						t.Error("single transfer corrupted")
					}
					b2, b1 := make([]byte, n), make([]byte, n)
					rb := r.Irecv(0, 2, b2)
					ra := r.Irecv(0, 1, b1)
					r.Wait(ra)
					r.Wait(rb)
					if !bytes.Equal(b1, pattern(2, n)) || !bytes.Equal(b2, pattern(3, n)) {
						t.Error("concurrent same-pair transfers corrupted")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.RndvMsgs.Load() != 3 {
				t.Errorf("RndvMsgs = %d, want 3", w.RndvMsgs.Load())
			}
		})
	}
}

// A zero-byte message on a forced-rendezvous world must still complete:
// the chunk schedule gets one empty chunk so the last-chunk completion
// fires (regression: nchunks == 0 never called complete and deadlocked).
func TestZeroByteRendezvousCompletes(t *testing.T) {
	w := NewWorld(2, Config{RndvThreshold: -1, Large: SingleCopy})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, nil)
		} else {
			st := r.Recv(0, 5, nil)
			if st.N != 0 || st.Tag != 5 {
				t.Errorf("zero-byte rendezvous status %+v", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.RndvMsgs.Load() != 1 {
		t.Errorf("RndvMsgs = %d, want 1 (threshold -1 forces rendezvous)", w.RndvMsgs.Load())
	}
}

// A recycled request must not leak its previous incarnation's Status:
// waiting on a send that reuses a pooled receive request returns the zero
// Status, as a fresh request always did.
func TestRecycledRequestStatusCleared(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := make([]byte, 64)
			r.Recv(1, 9, buf) // retires a receive request carrying a Status
			if st := r.Wait(r.Isend(1, 0, buf)); st != (Status{}) {
				t.Errorf("send via recycled request reported status %+v", st)
			}
		} else {
			r.Send(0, 9, pattern(9, 64))
			r.Recv(0, 0, make([]byte, 64))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Oversized eager messages that arrive unexpected reassemble fully and are
// then matchable by exact and wildcard receives in arrival order.
func TestOversizedEagerUnexpectedAndWildcard(t *testing.T) {
	const cell = 8192
	w := NewWorld(2, Config{Large: Eager, CellBytes: cell, RndvThreshold: cell})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, pattern(7, 100*1024))
			r.Send(1, 8, pattern(8, 50*1024))
			r.Send(1, 9, nil) // handshake: everything above is in flight
		} else {
			r.Recv(0, 9, nil) // drains the streams into the unexpected queue
			buf := make([]byte, 100*1024)
			st := r.Recv(AnySource, AnyTag, buf)
			if st.Tag != 7 || st.N != 100*1024 {
				t.Fatalf("wildcard got %+v, want the first-arrived tag-7 stream", st)
			}
			if !bytes.Equal(buf[:st.N], pattern(7, st.N)) {
				t.Error("tag-7 stream corrupted")
			}
			st = r.Recv(0, 8, buf[:50*1024])
			if st.N != 50*1024 || !bytes.Equal(buf[:st.N], pattern(8, st.N)) {
				t.Errorf("tag-8 stream corrupted (status %+v)", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A receive posted while an oversized stream is still arriving must take
// over the stream mid-flight: the sender's cell window throttles it after
// streamWindow segments, so the receiver provably matches an open stream.
func TestOversizedEagerMatchedMidStream(t *testing.T) {
	const cell = 4096
	const n = 40 * cell // far beyond streamWindow cells
	w := NewWorld(2, Config{Large: Eager, CellBytes: cell, RndvThreshold: cell})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, pattern(3, n))
		} else {
			// Arrive late: the head is already parked unexpected with the
			// stream open (the sender is throttled on its cell window).
			time.Sleep(20 * time.Millisecond)
			buf := make([]byte, n)
			st := r.Recv(0, 3, buf)
			if st.N != n {
				t.Fatalf("status %+v", st)
			}
			if !bytes.Equal(buf, pattern(3, n)) {
				t.Error("mid-stream takeover corrupted the payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The spin policy: Wait may poll bare only when every rank has a P of its
// own (counting only the Ps Config.Procs grants the world), no offload
// copiers compete for the Ps, and no rank is parked (a peer this rank just
// woke must get a chance to run on this P). Every other world yields
// between passes, as on a single-P runtime.
func TestSpinPolicy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	world := func(procs, ranks int, cfg Config) *World {
		runtime.GOMAXPROCS(procs)
		w := NewWorld(ranks, cfg)
		t.Cleanup(w.Close)
		return w
	}
	for _, c := range []struct {
		name         string
		procs, ranks int
		cfg          Config
	}{
		{"single-P", 1, 2, Config{}},
		{"ranks-exceed-Ps", 2, 3, Config{}},
		{"offload", 4, 2, Config{Large: Offload}},
		{"ranks-exceed-granted-Ps", 4, 2, Config{Procs: 1}},
		{"grant-above-GOMAXPROCS", 2, 3, Config{Procs: 4}},
	} {
		if world(c.procs, c.ranks, c.cfg).Rank(0).busyPoll() {
			t.Errorf("%s: bare-polls, want yield", c.name)
		}
	}

	// The comm engine hands JobSpec.RTProcs to the world.
	runtime.GOMAXPROCS(2)
	for _, c := range []struct {
		procs    int
		wantPoll bool
	}{{0, true}, {2, true}, {1, false}} {
		j, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2, RTProcs: c.procs})
		if err != nil {
			t.Fatal(err)
		}
		w := j.(*rtJob).w
		if got := w.Rank(0).busyPoll(); got != c.wantPoll {
			t.Errorf("2 ranks on 2 Ps, RTProcs %d: bare polling %v, want %v", c.procs, got, c.wantPoll)
		}
		w.Close()
	}

	for _, large := range []LargeMode{Eager, SingleCopy} {
		w := world(2, 2, Config{Large: large})
		if !w.Rank(0).busyPoll() {
			t.Errorf("%s, 2 ranks on 2 Ps: yields, want bare polling", large)
		}
		w.Rank(1).sleeping.Store(true) // the peer parks
		if w.Rank(0).busyPoll() {
			t.Errorf("%s: bare-polls while its peer is parked, want yield", large)
		}
		w.Rank(1).sleeping.Store(false)
		if !w.Rank(0).busyPoll() {
			t.Errorf("%s: still yields after its peer unparked", large)
		}
	}
}
