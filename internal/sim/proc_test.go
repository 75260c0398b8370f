package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestProcPanicReachesCaller: a panic inside a process surfaces from Run on
// the caller's goroutine in both modes — under the parallel engine from a
// lane worker, re-raised by the coordinator — instead of killing the
// program, and Terminate then reaps every other process (parked, unstarted
// and the panicked one itself), leaving no goroutine behind.
func TestProcPanicReachesCaller(t *testing.T) {
	for _, serial := range []bool{true, false} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			e.SetSerial(serial)
			e.SetLookahead(Microsecond)
			c := NewCond(e, "never")
			e.Spawn("waiter", func(p *Proc) { c.Wait(p) })
			e.SpawnDaemon("daemon", func(p *Proc) { c.Wait(p) })
			e.SpawnAt(Second, "unstarted", func(p *Proc) { t.Error("unstarted process ran") })
			for i := 0; i < 2; i++ {
				i := i
				d := e.NewDomain(fmt.Sprintf("lane%d", i))
				e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					p.Enter(d)
					for k := 0; ; k++ {
						if i == 1 && k == 3 {
							panic("process detonated")
						}
						p.Sleep(Nanosecond)
					}
				})
			}

			func() {
				defer func() {
					if r := recover(); r != "process detonated" {
						t.Fatalf("recovered %v, want the process's panic", r)
					}
				}()
				e.Run()
				t.Fatal("Run returned without the process's panic")
			}()

			e.Terminate()
			if live := e.LiveProcs(); live != 0 {
				t.Fatalf("LiveProcs after Terminate = %d", live)
			}
			for _, p := range e.procs {
				if !p.done || p.next != nil {
					t.Fatalf("process %s not reaped", p.name)
				}
			}
			// Lane workers may still be exiting after their WaitGroup
			// released the coordinator.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines after Terminate = %d, baseline %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestFinishedProcReleasesCaptures: the engine keeps every process of a run
// in its process table, so a finished process must not keep its coroutine —
// and with it fn and everything fn captured — reachable.
func TestFinishedProcReleasesCaptures(t *testing.T) {
	e := NewEngine()
	collected := make(chan struct{})
	func() {
		buf := new([1 << 20]byte)
		runtime.SetFinalizer(buf, func(*[1 << 20]byte) { close(collected) })
		e.Spawn("holder", func(p *Proc) {
			p.Sleep(Nanosecond)
			buf[0] = 1
		})
	}()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("a finished process still pins the buffer its function captured")
			}
		}
	}
	e.Terminate() // keeps the engine, and its process table, reachable until here
}

// BenchmarkProcSwitch measures one process switch: a resume into a parked
// process and its park back to the executor. serial: two machine-homed
// processes hand a turn back and forth through a Cond (op = one handoff).
// lanes: the parallel engine with two processes homed on their own lanes,
// each sleeping 1 ns per op, so both lane workers resume their processes
// from their own goroutines, a lookahead-wide window per round.
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		e := NewEngine()
		e.SetSerial(true)
		c := NewCond(e, "turn")
		turn := 0
		for i := 0; i < 2; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				for k := i; k < b.N; k += 2 {
					for turn != i {
						c.Wait(p)
					}
					turn = 1 - i
					c.Signal()
				}
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("lanes", func(b *testing.B) {
		e := NewEngine()
		e.SetSerial(false)
		e.SetLookahead(64 * Nanosecond)
		for i := 0; i < 2; i++ {
			d := e.NewDomain("lane")
			e.Spawn("p", func(p *Proc) {
				p.Enter(d)
				for k := 0; k < b.N; k++ {
					p.Sleep(Nanosecond)
				}
				p.Exit()
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
