package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/loadgen"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

// knemd selftest load: total submissions and the arrival/mix stream seed.
const (
	selftestJobs = 200
	selftestSeed = 1
)

// knemdSelftest starts an in-process daemon on a loopback port and replays
// an MMPP-modulated burst of mixed specs against it with the loadgen
// client. The shape metrics (errors, rt overlap, envelope audits,
// accounting identity, cache effectiveness) are Sim metrics; throughput,
// latency, shed and hit rates are measured Perf metrics.
func knemdSelftest() (Workload, error) {
	// knemd's flag defaults, so the selftest measures the daemon as deployed.
	d, err := serve.NewDaemon(serve.Config{
		SimWorkers:      runtime.GOMAXPROCS(0),
		QueueCap:        256,
		CacheSize:       256,
		Deadline:        2 * time.Minute,
		Recovery:        serve.RecoveryRequeue,
		RetryMax:        2,
		RetryBackoff:    200 * time.Millisecond,
		QuarantineAfter: 3,
	})
	if err != nil {
		return Workload{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Workload{}, err
	}
	srv := &http.Server{Handler: serve.Handler(d)}
	go srv.Serve(ln)

	rep, err := loadgen.Run(loadgen.Config{BaseURL: "http://" + ln.Addr().String(), Jobs: selftestJobs, Seed: selftestSeed})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	srv.Shutdown(ctx)
	if err != nil {
		return Workload{}, err
	}
	st := d.Stats()

	accounting := 1.0
	if rep.Done+rep.Failed+rep.Cancelled+rep.Shed != rep.Jobs {
		accounting = 0
	}
	cacheEffective := 0.0
	if st.CacheHits > 0 {
		cacheEffective = 1
	}
	return Workload{
		Sim: map[string]float64{
			"errors":            float64(rep.Failed),
			"rt_overlap_max":    float64(st.RTMaxObserved),
			"rt_audit_failures": float64(st.RTAuditFailures),
			"accounting_ok":     accounting,
			"cache_effective":   cacheEffective,
		},
		Perf: map[string]float64{
			"jobs_per_sec":   rep.JobsPerSec,
			"p50_ms":         rep.P50Ms,
			"p99_ms":         rep.P99Ms,
			"shed_rate":      rep.ShedRate,
			"cache_hit_rate": rep.CacheHitRate,
		},
	}, nil
}

// knemdRecovery measures the crash-recovery path on a synthetic pre-crash
// ledger: nDone completed jobs with durable artefacts, nCached interrupted
// duplicates of completed keys (recovery must answer them from the rebuilt
// cache) and nRequeue interrupted unique jobs (recovery must re-run them to
// byte-identical artefacts). The counts are exact, so the Sim metrics gate
// recovery correctness; the replay/recovery times are measured Perf
// metrics.
func knemdRecovery() (Workload, error) {
	const nDone, nCached, nRequeue = 4, 3, 3
	root, err := os.MkdirTemp("", "knemd-recovery-*")
	if err != nil {
		return Workload{}, err
	}
	defer os.RemoveAll(root)

	doneSpec := func(i int) api.Spec {
		return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{4*units.KiB + int64(i)*units.KiB}}
	}
	uniqSpec := func(i int) api.Spec {
		return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{128*units.KiB + int64(i)*units.KiB}}
	}
	canon := func(spec api.Spec) (api.Spec, string, error) {
		c, err := spec.Canonicalize()
		if err != nil {
			return api.Spec{}, "", err
		}
		key, err := c.CacheKey()
		return c, key, err
	}

	// Craft the dead daemon's ledger. IDs follow the daemon's own scheme so
	// the reopened sequence resumes above them.
	st, _, err := store.Open(root)
	if err != nil {
		return Workload{}, err
	}
	seq := 0
	nextID := func() string { seq++; return fmt.Sprintf("job-%06d", seq) }
	var cachedIDs, requeueIDs []string
	for i := 0; i < nDone; i++ {
		c, key, err := canon(doneSpec(i))
		if err != nil {
			return Workload{}, err
		}
		files, err := serve.Execute(context.Background(), c, nil)
		if err != nil {
			return Workload{}, err
		}
		id := nextID()
		st.Create(id, key, c.Class(), c.CanonicalJSON(), store.Queued)
		st.Advance(id, store.Running, "")
		if err := st.PutArtefact(id, files); err != nil {
			return Workload{}, err
		}
		st.Finish(id, store.Done, "", id, "")
	}
	for i := 0; i < nCached; i++ {
		c, key, err := canon(doneSpec(i))
		if err != nil {
			return Workload{}, err
		}
		id := nextID()
		cachedIDs = append(cachedIDs, id)
		st.Create(id, key, c.Class(), c.CanonicalJSON(), store.Queued)
		st.Advance(id, store.Admitted, "")
	}
	for i := 0; i < nRequeue; i++ {
		c, key, err := canon(uniqSpec(i))
		if err != nil {
			return Workload{}, err
		}
		id := nextID()
		requeueIDs = append(requeueIDs, id)
		st.Create(id, key, c.Class(), c.CanonicalJSON(), store.Queued)
		st.Advance(id, store.Running, "")
	}
	st.Close()

	// Reopen as the daemon would after a crash and let recovery resolve
	// everything the "kill" left behind.
	t0 := time.Now()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 2, StoreRoot: root})
	if err != nil {
		return Workload{}, err
	}
	select {
	case <-d.ReadyCh():
	case <-time.After(2 * time.Minute):
		return Workload{}, fmt.Errorf("recovery never completed")
	}

	recErrors := 0.0
	for _, id := range cachedIDs {
		rec, ok := d.Store().Get(id)
		if !ok || rec.State != store.Done || !rec.Cached {
			recErrors++
		}
	}
	for i, id := range requeueIDs {
		rec := awaitTerminal(d, id)
		if rec.State != store.Done {
			recErrors++
			continue
		}
		c, _, err := canon(uniqSpec(i))
		if err != nil {
			return Workload{}, err
		}
		direct, err := serve.Execute(context.Background(), c, nil)
		if err != nil {
			return Workload{}, err
		}
		got, err := d.Store().Artefact(id, "result.json")
		if err != nil || string(got) != string(direct["result.json"]) {
			recErrors++ // recovered artefact diverges from a direct run
		}
	}
	wall := time.Since(t0).Seconds()
	stats := d.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	d.Close()

	return Workload{
		Sim: map[string]float64{
			"recovery_requeued":     float64(stats.Recovery.Requeued),
			"recovery_cached":       float64(stats.Recovery.CachedAnswered),
			"recovery_crash_failed": float64(stats.Recovery.CrashFailed),
			"recovery_lost":         float64(nDone + nCached + nRequeue - stats.Recovery.ReplayRecords),
			"recovery_errors":       recErrors,
			"replay_entries":        float64(stats.Recovery.ReplayEntries),
		},
		Perf: map[string]float64{
			"replay_ms":    stats.Recovery.ReplayMS,
			"recovery_sec": wall,
		},
	}, nil
}

// awaitTerminal long-polls the ledger until the record is terminal.
func awaitTerminal(d *serve.Daemon, id string) store.Record {
	deadline := time.Now().Add(2 * time.Minute)
	since := 0
	for {
		rec, ok := d.Store().Wait(id, since, 5*time.Second)
		if !ok || rec.State.Terminal() || time.Now().After(deadline) {
			return rec
		}
		since = rec.Version
	}
}
