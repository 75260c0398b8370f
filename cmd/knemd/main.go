// Command knemd is the always-on experiment service: it accepts canonical
// JobSpec envelopes (see internal/serve/api) over HTTP/JSON, schedules
// them through the class-aware admission controller — sim jobs fan out
// across a bounded worker pool, rt jobs run one at a time in FIFO order —
// answers repeated submissions from the result cache, and persists typed
// JSON artefacts with a long-pollable progress ledger.
//
//	knemd -addr 127.0.0.1:8077 -store /var/lib/knemd
//	curl -d '{"kind":"comm","bench":"pingpong"}' http://127.0.0.1:8077/v1/jobs
//
// Its load-generation selftest and crash-recovery workload are the
// knemd-selftest and knemd-recovery rows of BENCH_9.json, run by simbench.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"knemesis/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "serve address")
		storeRoot  = flag.String("store", "", "artefact directory (empty = in memory)")
		simWorkers = flag.Int("sim-workers", runtime.GOMAXPROCS(0), "concurrently running sim jobs")
		queueCap   = flag.Int("queue-cap", 256, "backlog cap before submissions are shed (429)")
		cacheSize  = flag.Int("cache", 256, "result cache entries")
		deadline   = flag.Duration("deadline", 2*time.Minute, "default per-job deadline")

		recovery        = flag.String("recovery", serve.RecoveryRequeue, "crash-recovery policy for interrupted jobs (requeue|fail)")
		retryMax        = flag.Int("retry-max", 2, "transparent retries of transiently failed jobs (negative disables)")
		retryBackoff    = flag.Duration("retry-backoff", 200*time.Millisecond, "base of the exponential retry backoff")
		quarantineAfter = flag.Int("quarantine-after", 3, "panics per spec before its key is quarantined (negative disables)")
	)
	flag.Parse()

	cfg := serve.Config{
		SimWorkers: *simWorkers,
		QueueCap:   *queueCap,
		CacheSize:  *cacheSize,
		Deadline:   *deadline,
		StoreRoot:  *storeRoot,

		Recovery:        *recovery,
		RetryMax:        *retryMax,
		RetryBackoff:    *retryBackoff,
		QuarantineAfter: *quarantineAfter,
	}
	if err := serveForever(cfg, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		os.Exit(1)
	}
}

// serveForever runs the daemon until SIGINT/SIGTERM, then drains: no new
// submissions, queued jobs cancelled, running jobs finished (cut after a
// 30s grace period).
func serveForever(cfg serve.Config, addr string) error {
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.Handler(d)}
	fmt.Printf("knemd: serving on http://%s\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("knemd: %v: draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	srv.Shutdown(ctx)
	st := d.Stats()
	fmt.Printf("knemd: drained: %d done, %d failed, %d cancelled, %d shed\n",
		st.Done, st.Failed, st.Cancelled, st.Shed)
	return nil
}
