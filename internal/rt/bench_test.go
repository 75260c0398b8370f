package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkQueue measures the lock-free MPSC queue under concurrent
// producers (the Nemesis enqueue path).
func BenchmarkQueue(b *testing.B) {
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers-%d", producers), func(b *testing.B) {
			q := NewQueue[int]()
			var wg sync.WaitGroup
			per := b.N / producers
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q.Push(i)
					}
				}()
			}
			popped := 0
			for popped < per*producers {
				if _, ok := q.Pop(); ok {
					popped++
				}
			}
			wg.Wait()
		})
	}
}

// BenchmarkMsgQueue measures the intrusive envelope queue in its real
// usage pattern: envelopes cycle between each producer's free pool and the
// consumer's receive queue, allocation-free (compare BenchmarkQueue, whose
// generic variant allocates a node per push).
func BenchmarkMsgQueue(b *testing.B) {
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers-%d", producers), func(b *testing.B) {
			const poolPer = 64
			q := &msgQueue{}
			q.init()
			pools := make([]*msgQueue, producers)
			for p := range pools {
				pools[p] = &msgQueue{}
				pools[p].init()
				for i := 0; i < poolPer; i++ {
					pools[p].Push(&message{src: p})
				}
			}
			var wg sync.WaitGroup
			per := b.N / producers
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m := pools[p].Pop()
						for m == nil {
							runtime.Gosched()
							m = pools[p].Pop()
						}
						q.Push(m)
					}
				}()
			}
			popped := 0
			for popped < per*producers {
				if m := q.Pop(); m != nil {
					pools[m.src].Push(m)
					popped++
				} else {
					runtime.Gosched()
				}
			}
			wg.Wait()
		})
	}
}

// BenchmarkRTMsgRate measures small-message rate at fastbox and envelope
// sizes: one op is a full ping-pong round trip (two messages), so the
// message rate is 2e9/(ns/op) msgs/s. The PR 5 fast path's headline: zero
// allocations, fastbox delivery and hashed matching on this path.
func BenchmarkRTMsgRate(b *testing.B) {
	for _, size := range []int{8, 64, 256, 1024, 4096} {
		size := size
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w := NewWorld(2, Config{})
			defer w.Close()
			buf0 := make([]byte, size)
			buf1 := make([]byte, size)
			var wg sync.WaitGroup
			wg.Add(2)
			b.ResetTimer()
			go func() {
				defer wg.Done()
				r := w.Rank(0)
				for i := 0; i < b.N; i++ {
					r.Send(1, 0, buf0)
					r.Recv(1, 0, buf0)
				}
			}()
			go func() {
				defer wg.Done()
				r := w.Rank(1)
				for i := 0; i < b.N; i++ {
					r.Recv(0, 0, buf1)
					r.Send(0, 0, buf1)
				}
			}()
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// floorSlot is one direction of BenchmarkRTFloor's ping-pong: a flag
// with the payload inline behind it, the fastbox layout without any of
// the runtime around it.
type floorSlot struct {
	full atomic.Uint32
	_    uint32
	data [4096]byte
}

// BenchmarkRTFloor measures what a small-message ping-pong costs on the
// host it runs on with no runtime at all: two goroutines, one slot per
// direction, copy in, raise the flag, poll it, copy out, lower it. It is
// the floor BenchmarkRTMsgRate can approach at the same sizes (one op is a
// round trip, two messages). The poll is bare on a multi-P runtime and
// yields on a single P, as rt's Wait does.
func BenchmarkRTFloor(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"4KiB", 4096}} {
		b.Run(size.name, func(b *testing.B) {
			yield := runtime.GOMAXPROCS(0) == 1
			ping, pong := new(floorSlot), new(floorSlot)
			await := func(s *floorSlot) {
				for s.full.Load() == 0 {
					if yield {
						runtime.Gosched()
					}
				}
			}
			buf0 := make([]byte, size.n)
			buf1 := make([]byte, size.n)
			var wg sync.WaitGroup
			wg.Add(2)
			b.ResetTimer()
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					copy(ping.data[:], buf0)
					ping.full.Store(1)
					await(pong)
					copy(buf0, pong.data[:size.n])
					pong.full.Store(0)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					await(ping)
					copy(buf1, ping.data[:size.n])
					ping.full.Store(0)
					copy(pong.data[:], buf1)
					pong.full.Store(1)
				}
			}()
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkRTStreamBW measures large-message bandwidth per mode: a
// unidirectional stream of 4 MiB messages (MB/s is payload moved, once).
// Eager exercises the bounded cell pipeline, single-copy the chunked
// dual-copy rendezvous, offload the copier pool.
func BenchmarkRTStreamBW(b *testing.B) {
	const size = 4 << 20
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			w := NewWorld(2, Config{Large: mode})
			defer w.Close()
			buf0 := make([]byte, size)
			buf1 := make([]byte, size)
			var wg sync.WaitGroup
			wg.Add(2)
			b.SetBytes(size)
			b.ResetTimer()
			go func() {
				defer wg.Done()
				r := w.Rank(0)
				for i := 0; i < b.N; i++ {
					r.Send(1, 0, buf0)
				}
				r.Recv(1, 1, nil)
			}()
			go func() {
				defer wg.Done()
				r := w.Rank(1)
				for i := 0; i < b.N; i++ {
					r.Recv(0, 0, buf1)
				}
				r.Send(0, 1, nil)
			}()
			wg.Wait()
		})
	}
}

// BenchmarkRTPingPong measures real goroutine ping-pong throughput per
// strategy and size: the Go-native analogue of Figures 4/5. The crossover
// between eager (two copies) and single-copy rendezvous appears around the
// cell size, echoing the paper's threshold discussion.
func BenchmarkRTPingPong(b *testing.B) {
	sizes := []int{4 * 1024, 64 * 1024, 1 << 20, 4 << 20}
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		for _, size := range sizes {
			mode, size := mode, size
			b.Run(fmt.Sprintf("%s/%d", mode, size), func(b *testing.B) {
				w := NewWorld(2, Config{Large: mode})
				defer w.Close()
				buf0 := make([]byte, size)
				buf1 := make([]byte, size)
				var wg sync.WaitGroup
				wg.Add(2)
				b.SetBytes(int64(size))
				b.ResetTimer()
				go func() {
					defer wg.Done()
					r := w.Rank(0)
					for i := 0; i < b.N; i++ {
						r.Send(1, 0, buf0)
						r.Recv(1, 0, buf0)
					}
				}()
				go func() {
					defer wg.Done()
					r := w.Rank(1)
					for i := 0; i < b.N; i++ {
						r.Recv(0, 0, buf1)
						r.Send(0, 0, buf1)
					}
				}()
				wg.Wait()
			})
		}
	}
}

// BenchmarkRTAlltoall measures the collective under each strategy.
func BenchmarkRTAlltoall(b *testing.B) {
	const n = 4
	const block = 256 * 1024
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			w := NewWorld(n, Config{Large: mode})
			defer w.Close()
			b.SetBytes(int64(n * (n - 1) * block))
			var wg sync.WaitGroup
			b.ResetTimer()
			for rank := 0; rank < n; rank++ {
				rank := rank
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := w.Rank(rank)
					send := make([]byte, n*block)
					recv := make([]byte, n*block)
					for i := 0; i < b.N; i++ {
						alltoall(r, send, recv, block)
					}
				}()
			}
			wg.Wait()
		})
	}
}
