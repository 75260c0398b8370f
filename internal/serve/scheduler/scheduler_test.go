package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingJob returns a job that parks until released (or its ctx is cut).
func blockingJob(id, class string, release <-chan struct{}) Job {
	return Job{ID: id, Class: class, Run: func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSimPoolBounded(t *testing.T) {
	var running, max atomic.Int64
	var done sync.WaitGroup
	s := New(Config{SimWorkers: 2, QueueCap: 16,
		OnFinish: func(string, error, bool) { done.Done() }})
	for i := 0; i < 6; i++ {
		done.Add(1)
		err := s.Submit(Job{ID: string(rune('a' + i)), Class: ClassSim, Run: func(ctx context.Context) error {
			n := running.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			running.Add(-1)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("sim concurrency reached %d with SimWorkers=2", got)
	}
}

func TestRTExclusive(t *testing.T) {
	var running, max atomic.Int64
	var done sync.WaitGroup
	s := New(Config{SimWorkers: 4, QueueCap: 16,
		OnFinish: func(string, error, bool) { done.Done() }})
	for i := 0; i < 4; i++ {
		done.Add(1)
		err := s.Submit(Job{ID: string(rune('a' + i)), Class: ClassRT,
			Run: func(ctx context.Context) error {
				n := running.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				running.Add(-1)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	if got := max.Load(); got != 1 {
		t.Fatalf("rt concurrency reached %d; rt jobs must never overlap", got)
	}
	if st := s.Stats(); st.RTMax != 1 {
		t.Fatalf("RTMax watermark = %d, want 1", st.RTMax)
	}
}

func TestQueueShedding(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, QueueCap: 2})
	// 1 running + 2 queued fit; the 4th submission is shed.
	for i := 0; i < 3; i++ {
		if err := s.Submit(blockingJob(string(rune('a'+i)), ClassSim, release)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Submit(blockingJob("d", ClassSim, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission error = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Queued != 2 {
		t.Fatalf("stats after shed = %+v", st)
	}
	close(release)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	type fin struct {
		err       error
		cancelled bool
	}
	fins := make(map[string]fin)
	var mu sync.Mutex
	var done sync.WaitGroup
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, QueueCap: 8, OnFinish: func(id string, err error, c bool) {
		mu.Lock()
		fins[id] = fin{err, c}
		mu.Unlock()
		done.Done()
	}})
	done.Add(2)
	if err := s.Submit(blockingJob("running", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(blockingJob("queued", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	if !s.Cancel("queued") {
		t.Fatal("Cancel(queued) = false")
	}
	if !s.Cancel("running") {
		t.Fatal("Cancel(running) = false")
	}
	if s.Cancel("nope") {
		t.Fatal("Cancel of unknown id = true")
	}
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []string{"queued", "running"} {
		f := fins[id]
		if !f.cancelled || !errors.Is(f.err, context.Canceled) {
			t.Fatalf("%s finished with %+v, want cancelled+context.Canceled", id, f)
		}
	}
}

func TestDeadlineCutsJob(t *testing.T) {
	var finErr error
	var cancelled bool
	var done sync.WaitGroup
	done.Add(1)
	s := New(Config{SimWorkers: 1, Deadline: 10 * time.Millisecond,
		OnFinish: func(_ string, err error, c bool) { finErr, cancelled = err, c; done.Done() }})
	if err := s.Submit(blockingJob("slow", ClassSim, nil)); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if !errors.Is(finErr, context.DeadlineExceeded) || cancelled {
		t.Fatalf("deadline finish = (%v, cancelled=%v), want DeadlineExceeded, not cancelled", finErr, cancelled)
	}
}

func TestDrain(t *testing.T) {
	var mu sync.Mutex
	fins := make(map[string]bool) // id -> cancelled
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, QueueCap: 8, OnFinish: func(id string, _ error, c bool) {
		mu.Lock()
		fins[id] = c
		mu.Unlock()
	}})
	if err := s.Submit(blockingJob("running", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(blockingJob("queued", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release) // let the running job finish naturally
	}()
	s.Drain(context.Background())
	if err := s.Submit(blockingJob("late", ClassSim, nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission error = %v, want ErrDraining", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if c, ok := fins["queued"]; !ok || !c {
		t.Fatalf("queued job not cancelled on drain: %v %v", c, ok)
	}
	if c, ok := fins["running"]; !ok || c {
		t.Fatalf("running job not drained naturally: cancelled=%v finished=%v", c, ok)
	}
	if st := s.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
}

// TestDrainWaitsForOnFinish: a job that finishes while Drain waits must
// have its OnFinish completed before Drain returns, or the caller reads a
// ledger that still shows it running.
func TestDrainWaitsForOnFinish(t *testing.T) {
	var finished atomic.Bool
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, OnFinish: func(string, error, bool) {
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
	}})
	if err := s.Submit(blockingJob("running", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	close(release)
	s.Drain(context.Background())
	if !finished.Load() {
		t.Fatal("Drain returned before the finished job's OnFinish did")
	}
}

func TestDrainDeadlineCutsStragglers(t *testing.T) {
	var done sync.WaitGroup
	done.Add(1)
	var finErr error
	s := New(Config{SimWorkers: 1,
		OnFinish: func(_ string, err error, _ bool) { finErr = err; done.Done() }})
	if err := s.Submit(blockingJob("stuck", ClassSim, nil)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s.Drain(ctx)
	done.Wait()
	if !errors.Is(finErr, context.Canceled) {
		t.Fatalf("straggler finished with %v, want context.Canceled", finErr)
	}
}

// TestFIFOAdmission: queued rt jobs start in submission order once the rt
// lane frees, and a sim job queued behind them is not held up by the busy
// lane.
func TestFIFOAdmission(t *testing.T) {
	var mu sync.Mutex
	var order []string
	started := func() []string { mu.Lock(); defer mu.Unlock(); return append([]string(nil), order...) }
	release := make(chan struct{})
	var done sync.WaitGroup
	s := New(Config{SimWorkers: 1, QueueCap: 8,
		OnStart:  func(id string) { mu.Lock(); order = append(order, id); mu.Unlock() },
		OnFinish: func(string, error, bool) { done.Done() }})
	done.Add(5)
	if err := s.Submit(blockingJob("first", ClassRT, release)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first rt job running", func() bool { return len(started()) == 1 })
	for _, j := range []Job{
		{ID: "rt1", Class: ClassRT},
		{ID: "rt2", Class: ClassRT},
		{ID: "rt3", Class: ClassRT},
		{ID: "sim", Class: ClassSim},
	} {
		j.Run = func(context.Context) error { return nil }
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "sim job admitted past the busy rt lane", func() bool { return len(started()) == 2 })
	close(release)
	done.Wait()
	want := []string{"first", "sim", "rt1", "rt2", "rt3"}
	if got := started(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("start order = %v, want %v", got, want)
	}
}
