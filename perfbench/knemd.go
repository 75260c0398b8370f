package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
)

const (
	// knemdClients is the closed-loop client count: one per CPU of the
	// 2-CPU reference host, each with its own connection.
	knemdClients = 2
	// knemdLedger is the size of the pre-filled ledger the daemon boots on.
	knemdLedger = 3000
	// knemdBoots is how many times set-up boots the daemon; setup_s is the
	// median.
	knemdBoots = 5
	// knemdHitChecks bounds the cache hits whose artefacts are re-read.
	knemdHitChecks = 64
	// knemdReplayMax bounds the records replayed into a fresh store for the
	// store.* metrics.
	knemdReplayMax = 2000
	// missSpan is the range of unique cache-miss message sizes: 1 KiB up
	// to 64 KiB, all on the eager path.
	missSpan = 63 << 10
	// missStride walks missSpan without repeats (coprime with it).
	missStride = 1009
)

// knemdWarmSpecs are the 8 specs whose completed runs the pre-filled
// ledger holds and the serving daemon runs once before the window:
// submitting one is a cache hit. None may share a cache key with a miss
// spec, so the default-LMT PingPong sits below the miss size range.
func knemdWarmSpecs() []api.Spec {
	c := func(bench string, ranks int, size int64, lmt string) api.Spec {
		return api.Spec{Kind: api.KindComm, Engine: "sim", Bench: bench, Ranks: ranks, Sizes: []int64{size}, LMT: lmt}
	}
	return []api.Spec{
		c("pingpong", 2, 512, "default"),
		c("pingpong", 2, 64<<10, "knem"),
		c("pingpong", 2, 256<<10, "cma"),
		c("alltoall", 4, 1<<10, ""),
		c("bcast", 4, 8<<10, ""),
		c("allreduce", 4, 4<<10, ""),
		c("sendrecv", 4, 16<<10, ""),
		c("exchange", 4, 2<<10, ""),
	}
}

// knemdInputs are a run's seed-generated submissions.
type knemdInputs struct {
	warm      []api.Spec
	warmBody  [][]byte
	warmBytes [][]byte // each warm spec's expected result.json
	missOff   int64
	missSeq   atomic.Int64
}

// nextMiss returns the next unique cache-miss size: no earlier
// submission used it.
func (in *knemdInputs) nextMiss() int64 {
	k := in.missSeq.Add(1)
	return 1<<10 + (in.missOff+k*missStride)%missSpan
}

// missSpec is the cache-miss spec of a size: a sim PingPong.
func missSpec(size int64) api.Spec {
	return api.Spec{Kind: api.KindComm, Engine: "sim", Bench: "pingpong", Sizes: []int64{size}}
}

// errShed marks a submission the daemon refused for load (429/503).
var errShed = errors.New("shed")

// submitted is a submission's immediate answer.
type submitted struct {
	ID     string
	Cached bool
	Done   bool // already terminal (a cache hit)
}

// knemdClient is how a closed-loop client reaches knemd: over HTTP, or
// in-process through the daemon's public functions for the traced stage
// breakdown.
type knemdClient interface {
	submit(lane *Lane, op uint64, spec api.Spec, body []byte) (submitted, error)
	await(lane *Lane, op uint64, id string) (store.Record, error)
}

// httpClient submits and long-polls over one keep-alive connection.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

func (h *httpClient) submit(lane *Lane, op uint64, _ api.Spec, body []byte) (submitted, error) {
	lane.Begin("http.submit", op)
	defer lane.End()
	resp, err := h.c.Post(h.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return submitted{}, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return submitted{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return submitted{}, fmt.Errorf("%w: HTTP %d", errShed, resp.StatusCode)
	default:
		return submitted{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf))
	}
	var sr api.SubmitResult
	if err := json.Unmarshal(buf, &sr); err != nil {
		return submitted{}, fmt.Errorf("submit: %w", err)
	}
	return submitted{ID: sr.ID, Cached: sr.Cached, Done: store.State(sr.State).Terminal()}, nil
}

func (h *httpClient) await(lane *Lane, op uint64, id string) (store.Record, error) {
	since := 0
	for {
		lane.Begin("http.wait", op)
		rec, err := h.getRecord(fmt.Sprintf("%s/v1/jobs/%s/events?since=%d&wait=30", h.base, id, since))
		lane.End()
		if err != nil || rec.State.Terminal() {
			return rec, err
		}
		since = rec.Version
	}
}

func (h *httpClient) getRecord(url string) (store.Record, error) {
	var rec store.Record
	buf, err := h.get(url)
	if err == nil {
		err = json.Unmarshal(buf, &rec)
	}
	return rec, err
}

func (h *httpClient) get(url string) ([]byte, error) {
	resp, err := h.c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf))
	}
	return buf, nil
}

// inProcClient drives Daemon.Submit and Store().Wait directly.
type inProcClient struct{ d *serve.Daemon }

func (p inProcClient) submit(lane *Lane, op uint64, spec api.Spec, _ []byte) (submitted, error) {
	// The api layer measured on its own; Submit canonicalizes again.
	lane.Begin("api.canonicalize", op)
	_, cerr := spec.Canonicalize()
	lane.End()
	if cerr != nil {
		return submitted{}, cerr
	}
	lane.Begin("serve.submit", op)
	rec, err := p.d.Submit(spec)
	lane.End()
	switch {
	case errors.Is(err, scheduler.ErrQueueFull), errors.Is(err, scheduler.ErrDraining), errors.Is(err, serve.ErrNotReady):
		return submitted{}, fmt.Errorf("%w: %v", errShed, err)
	case err != nil:
		return submitted{}, err
	}
	return submitted{ID: rec.ID, Cached: rec.Cached, Done: rec.State.Terminal()}, nil
}

func (p inProcClient) await(lane *Lane, op uint64, id string) (store.Record, error) {
	since := 0
	for {
		lane.Begin("store.wait", op)
		rec, ok := p.d.Store().Wait(id, since, 30*time.Second)
		lane.End()
		if !ok {
			return rec, fmt.Errorf("job %s vanished from the ledger", id)
		}
		if rec.State.Terminal() {
			return rec, nil
		}
		since = rec.Version
	}
}

// jobSample is one completed closed-loop job. It is kept small: a run
// holds tens of thousands, and the knemd-closed memory metric counts them.
type jobSample struct {
	ID    string
	Hit   bool
	Warm  int   // warm spec index (hits)
	Size  int64 // message size (misses)
	LatUS float64
	// QueueMS and RunMS are the queued→admitted and running→done stages
	// of a miss, from its record's transition timestamps (-1 if absent).
	QueueMS, RunMS float64
}

// loopResult is one client's closed-loop tally: Attempted = Done + Failed
// + Shed always holds.
type loopResult struct {
	Attempted, Done, Failed, Shed, Wrong int64
	Failures                             []string
	Samples                              []jobSample
}

func (lr *loopResult) failf(wrong bool, format string, args ...interface{}) {
	lr.Failed++
	if wrong {
		lr.Wrong++
	}
	if len(lr.Failures) < 10 {
		lr.Failures = append(lr.Failures, fmt.Sprintf(format, args...))
	}
}

// closedLoop submits jobs back to back, each after the previous one
// reached a terminal state, until end. Three in four submissions draw a
// warm spec (a cache hit), one in four a unique miss.
func closedLoop(cl knemdClient, in *knemdInputs, rng *rand.Rand, end deadline, lane *Lane, opBase uint64) *loopResult {
	lr := &loopResult{}
	for op := opBase; !end.passed(); op++ {
		lr.Attempted++
		s := jobSample{Hit: rng.Intn(4) != 0, QueueMS: -1, RunMS: -1}
		var spec api.Spec
		var body []byte
		if s.Hit {
			s.Warm = rng.Intn(len(in.warm))
			spec, body = in.warm[s.Warm], in.warmBody[s.Warm]
		} else {
			s.Size = in.nextMiss()
			spec = missSpec(s.Size)
			body, _ = json.Marshal(spec) // plain fields always marshal
		}
		lane.Begin("bench.job", op)
		t0 := time.Now()
		sub, err := cl.submit(lane, op, spec, body)
		if err == nil && !sub.Done {
			var rec store.Record
			rec, err = cl.await(lane, op, sub.ID)
			if err == nil && rec.State != store.Done {
				err = fmt.Errorf("job %s ended %s: %s", sub.ID, rec.State, rec.Error)
			}
			s.QueueMS = stageMS(rec, store.Queued, store.Admitted)
			s.RunMS = stageMS(rec, store.Running, store.Done)
		}
		s.LatUS = float64(time.Since(t0)) / 1e3
		lane.End()
		switch {
		case errors.Is(err, errShed):
			lr.Shed++
			continue
		case err != nil:
			lr.failf(false, "knemd-closed: %v", err)
			continue
		case sub.Cached != s.Hit:
			lr.failf(true, "knemd-closed: job %s cached=%v, want %v", sub.ID, sub.Cached, s.Hit)
			continue
		}
		s.ID = sub.ID
		lr.Done++
		lr.Samples = append(lr.Samples, s)
	}
	return lr
}

// knemdBench is one knemd-closed run: a pre-filled durable store for the
// set-up boots, and the serving daemon with its loopback HTTP server.
type knemdBench struct {
	cfg  config
	root string
	in   *knemdInputs

	d       *serve.Daemon
	srv     *http.Server
	srvDone chan struct{}
	base    string
	opSeq   uint64
}

// prefill writes the seed-generated ledger through the store's public
// API: the warm specs' completed runs first, then a fixed mix of cache
// hits on them, completed unique runs, failures and cancellations.
func (k *knemdBench) prefill(rng *rand.Rand) error {
	st, _, err := store.Open(k.root)
	if err != nil {
		return err
	}
	defer st.Close()
	seq := 0
	nextID := func() string { seq++; return fmt.Sprintf("job-%06d", seq) }
	type ledgerRec struct {
		id, key, class string
		spec           []byte
	}
	// run executes a spec and records it as a completed run owning its
	// artefact.
	run := func(spec api.Spec) (ledgerRec, []byte, error) {
		c, err := spec.Canonicalize()
		if err != nil {
			return ledgerRec{}, nil, err
		}
		key, err := c.CacheKey()
		if err != nil {
			return ledgerRec{}, nil, err
		}
		files, err := serve.Execute(context.Background(), c, nil)
		if err != nil {
			return ledgerRec{}, nil, err
		}
		r := ledgerRec{nextID(), key, c.Class(), c.CanonicalJSON()}
		st.Create(r.id, r.key, r.class, r.spec, store.Queued)
		st.Advance(r.id, store.Admitted, "")
		st.Advance(r.id, store.Running, "")
		if err := st.PutArtefact(r.id, files); err != nil {
			return ledgerRec{}, nil, err
		}
		st.Finish(r.id, store.Done, "", r.id, "")
		return r, files["result.json"], nil
	}
	var warm []ledgerRec
	for i, spec := range k.in.warm {
		r, out, err := run(spec)
		if err != nil {
			return fmt.Errorf("prefill warm spec %d: %w", i, err)
		}
		k.in.warmBytes = append(k.in.warmBytes, out)
		warm = append(warm, r)
	}
	fillOff := rng.Int63n(missSpan)
	for n := len(warm); n < knemdLedger; n++ {
		switch {
		case n%14 == 0: // a completed run of a spec nothing else submits
			size := 1<<10 + (fillOff+int64(n)*missStride)%missSpan
			spec := api.Spec{Kind: api.KindComm, Engine: "sim", Bench: "pingpong", Sizes: []int64{size}, LMT: "knem"}
			if _, _, err := run(spec); err != nil {
				return fmt.Errorf("prefill record %d: %w", n, err)
			}
		case n%50 == 1 || n%50 == 2:
			w := warm[rng.Intn(len(warm))]
			id := nextID()
			st.Create(id, w.key, w.class, w.spec, store.Queued)
			state, note := store.Failed, "prefilled failure"
			if n%50 == 2 {
				state, note = store.Cancelled, "prefilled cancellation"
			}
			st.Finish(id, state, note, "", note)
		default:
			w := warm[rng.Intn(len(warm))]
			id := nextID()
			st.Create(id, w.key, w.class, w.spec, store.Done)
			st.MarkCached(id, w.id)
		}
	}
	return st.Close()
}

// boot starts a daemon on the store under root ("" = in memory) and
// serves it on loopback; it returns once /v1/readyz answers 200.
func (k *knemdBench) boot(root string) (time.Duration, float64, error) {
	t0 := time.Now()
	d, err := serve.NewDaemon(serve.Config{StoreRoot: root})
	if err != nil {
		return 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return 0, 0, err
	}
	k.d, k.base = d, "http://"+ln.Addr().String()
	k.srv = &http.Server{Handler: serve.Handler(d)}
	k.srvDone = make(chan struct{})
	go func() {
		defer close(k.srvDone)
		k.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	<-d.ReadyCh()
	hc := newHTTPClient(k.base)
	defer hc.close()
	if _, err := hc.get(k.base + "/v1/readyz"); err != nil {
		k.shutdown()
		return 0, 0, err
	}
	return time.Since(t0), d.Stats().Recovery.ReplayMS, nil
}

// warmUp runs each warm spec once on the serving daemon, so that later
// submissions of it are cache hits, and checks each artefact against the
// direct serve.Execute result taken while pre-filling.
func (k *knemdBench) warmUp(rep *report) error {
	hc := newHTTPClient(k.base)
	defer hc.close()
	for i, body := range k.in.warmBody {
		sub, err := hc.submit(nil, 0, k.in.warm[i], body)
		if err != nil {
			return fmt.Errorf("knemd warm-up: %w", err)
		}
		if _, err := hc.await(nil, 0, sub.ID); err != nil {
			return fmt.Errorf("knemd warm-up: %w", err)
		}
		got, err := hc.get(k.base + "/v1/jobs/" + sub.ID + "/result")
		if err != nil {
			return fmt.Errorf("knemd warm-up: %w", err)
		}
		if !bytes.Equal(got, k.in.warmBytes[i]) {
			rep.fail("knemd-closed: warm spec %d: artefact differs from a direct serve.Execute", i)
		}
	}
	return nil
}

// shutdown stops the HTTP server and drains and closes the daemon.
func (k *knemdBench) shutdown() {
	if k.d == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	k.srv.Shutdown(ctx)
	<-k.srvDone
	k.d.Drain(ctx)
	k.d.Close()
	k.d = nil
}

// knemdPass is one closed-loop pass's merged client results.
type knemdPass struct {
	loopResult
	Secs float64
	// HeapGrowthMiB is the live heap the pass left behind: knemd keeps
	// every record (and, with the in-memory store, every artefact), so
	// memory grows with the jobs served.
	HeapGrowthMiB float64
	// DaemonDone and DaemonShed are the daemon's own counts for the pass.
	DaemonDone, DaemonShed int64
}

// liveHeapMiB collects garbage and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// pass runs knemdClients closed-loop clients for window.
func (k *knemdBench) pass(window time.Duration, inProc bool, tr *Tracer) *knemdPass {
	heap0 := liveHeapMiB()
	st0 := k.d.Stats()
	end := after(window)
	results := make([]*loopResult, knemdClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < knemdClients; c++ {
		var cl knemdClient = inProcClient{k.d}
		if !inProc {
			hc := newHTTPClient(k.base)
			defer hc.close()
			cl = hc
		}
		rng := rand.New(rand.NewSource(k.cfg.Seed*7919 + int64(c) + int64(k.opSeq)))
		lane := tr.Lane()
		opBase := k.opSeq + uint64(c)<<32
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = closedLoop(cl, k.in, rng, end, lane, opBase)
		}(c)
	}
	wg.Wait()
	k.opSeq += 1 << 40
	secs := time.Since(t0).Seconds()
	st1 := k.d.Stats()
	p := &knemdPass{
		Secs:          secs,
		HeapGrowthMiB: liveHeapMiB() - heap0,
		DaemonDone:    st1.Done - st0.Done,
		DaemonShed:    st1.Shed - st0.Shed,
	}
	for _, r := range results {
		p.Attempted += r.Attempted
		p.Done += r.Done
		p.Failed += r.Failed
		p.Shed += r.Shed
		p.Wrong += r.Wrong
		p.Failures = append(p.Failures, r.Failures...)
		p.Samples = append(p.Samples, r.Samples...)
	}
	return p
}

// account folds a pass into the report and checks its accounting.
func (k *knemdBench) account(rep *report, p *knemdPass) {
	rep.Attempted += p.Attempted
	rep.Failed += p.Failed + p.Shed
	rep.Wrong += p.Wrong
	for _, f := range p.Failures {
		if len(rep.Failures) < 20 {
			rep.Failures = append(rep.Failures, f)
		}
	}
	if p.Attempted != p.Done+p.Failed+p.Shed {
		rep.fail("knemd-closed: accounting: attempted %d != done %d + failed %d + shed %d",
			p.Attempted, p.Done, p.Failed, p.Shed)
	}
	// The daemon must agree: every job a client saw done (or done but
	// wrongly cached) is done there, every shed submission shed there.
	if p.DaemonDone != p.Done+p.Wrong || p.DaemonShed != p.Shed {
		rep.fail("knemd-closed: accounting: daemon counted done %d shed %d, clients done %d (+%d wrong) shed %d",
			p.DaemonDone, p.DaemonShed, p.Done, p.Wrong, p.Shed)
	}
}

// knemdE2E reduces a pass to the end-to-end metrics.
func knemdE2E(rep *report, p *knemdPass, into map[string]float64, label string) (hitP50 float64) {
	var all, hits, misses []float64
	for _, s := range p.Samples {
		all = append(all, s.LatUS)
		if s.Hit {
			hits = append(hits, s.LatUS)
		} else {
			misses = append(misses, s.LatUS)
		}
	}
	lat := summarize(all)
	if p.Secs > 0 {
		into["ops_per_s"] = float64(p.Done) / p.Secs
	}
	into["lat_us_p50"] = lat.P50
	into["lat_us_p99"] = lat.P99
	into["light_us_p50"] = median(hits)
	into["heavy_us_p50"] = median(misses)
	rep.noteSummary(label+" job latency", lat)
	rep.note("samples %s hits=%d misses=%d shed=%d failed=%d", label, len(hits), len(misses), p.Shed, p.Failed)
	return into["light_us_p50"]
}

// verify re-checks the run's outputs: every distinct miss artefact
// against a direct serve.Execute of its spec, a seeded sample of hits
// (read over HTTP) against their warm spec's owner artefact.
func (k *knemdBench) verify(rep *report, samples []jobSample) {
	var misses, hits []jobSample
	for _, s := range samples {
		if s.Hit {
			hits = append(hits, s)
		} else {
			misses = append(misses, s)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < knemdClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(misses)); i = next.Add(1) - 1 {
				s := misses[i]
				err := k.checkMiss(s)
				if err != nil {
					mu.Lock()
					rep.fail("knemd-closed: miss %s: %v", s.ID, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	rng := rand.New(rand.NewSource(k.cfg.Seed))
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	if len(hits) > knemdHitChecks {
		hits = hits[:knemdHitChecks]
	}
	hc := newHTTPClient(k.base)
	defer hc.close()
	for _, s := range hits {
		got, err := hc.get(k.base + "/v1/jobs/" + s.ID + "/result")
		if err != nil {
			rep.fail("knemd-closed: hit %s: %v", s.ID, err)
		} else if !bytes.Equal(got, k.in.warmBytes[s.Warm]) {
			rep.fail("knemd-closed: hit %s: artefact differs from its owner's", s.ID)
		}
	}
	rep.note("verified %d miss artefacts against serve.Execute, %d hit artefacts against their owners", len(misses), len(hits))
}

func (k *knemdBench) checkMiss(s jobSample) error {
	got, err := k.d.Store().Artefact(s.ID, "result.json")
	if err != nil {
		return err
	}
	c, err := missSpec(s.Size).Canonicalize()
	if err != nil {
		return err
	}
	want, err := serve.Execute(context.Background(), c, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want["result.json"]) {
		return errors.New("artefact differs from a direct serve.Execute of its spec")
	}
	return nil
}

// replayStore replays the ledger mutations of the given records into a
// fresh store on the same filesystem, timing every WAL append and
// artefact write.
func (k *knemdBench) replayStore(rep *report, samples []jobSample) error {
	root := k.root + "-replay"
	defer os.RemoveAll(root)
	st, _, err := store.Open(root)
	if err != nil {
		return err
	}
	defer st.Close()
	sort.Slice(samples, func(i, j int) bool { return samples[i].ID < samples[j].ID })
	if len(samples) > knemdReplayMax {
		samples = samples[:knemdReplayMax]
	}
	var appendUS, putMS []float64
	timed := func(into *[]float64, scale float64, f func()) {
		t := time.Now()
		f()
		*into = append(*into, float64(time.Since(t))/scale)
	}
	for _, s := range samples {
		rec, ok := k.d.Store().Get(s.ID)
		if !ok || len(rec.Transitions) == 0 {
			return fmt.Errorf("replay: record %s missing", s.ID)
		}
		tr := rec.Transitions
		timed(&appendUS, 1e3, func() { st.Create(rec.ID, rec.Key, rec.Class, rec.Spec, tr[0].State) })
		if rec.Cached {
			timed(&appendUS, 1e3, func() { st.MarkCached(rec.ID, rec.ArtefactID) })
		}
		for _, x := range tr[1:] {
			if !x.State.Terminal() {
				timed(&appendUS, 1e3, func() { st.Advance(rec.ID, x.State, x.Note) })
				continue
			}
			if x.State == store.Done && !rec.Cached {
				files, err := k.artefacts(rec.ID)
				if err != nil {
					return err
				}
				var perr error
				timed(&putMS, 1e6, func() { perr = st.PutArtefact(rec.ID, files) })
				if perr != nil {
					return perr
				}
			}
			timed(&appendUS, 1e3, func() { st.Finish(rec.ID, x.State, rec.Error, rec.ArtefactID, x.Note) })
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	walBytes, err := topLevelFileBytes(root)
	if err != nil {
		return err
	}
	a := summarize(appendUS)
	L := rep.Layer
	L["store.append_us_p50"] = a.P50
	L["store.append_us_p99"] = a.P99
	L["store.put_artefact_ms_p50"] = median(putMS)
	if len(samples) > 0 {
		L["store.wal_bytes_per_job"] = float64(walBytes) / float64(len(samples))
	}
	rep.noteSummary("store append", a)
	rep.note("samples store replay jobs=%d artefact puts=%d", len(samples), len(putMS))
	return nil
}

// artefacts reads every artefact file a job owns.
func (k *knemdBench) artefacts(id string) (map[string][]byte, error) {
	names, err := k.d.Store().ArtefactNames(id)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(names))
	for _, n := range names {
		if files[n], err = k.d.Store().Artefact(id, n); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// topLevelFileBytes sums the sizes of the regular files directly in dir:
// the store's ledger log (artefacts live in per-job subdirectories).
func topLevelFileBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func runKnemdClosed(cfg config) (*report, error) {
	k := &knemdBench{cfg: cfg, root: filepath.Join(cfg.Work, "knemd-store-"+strconv.Itoa(os.Getpid()))}
	if err := os.RemoveAll(k.root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(k.root)
	rng := rand.New(rand.NewSource(cfg.Seed))
	k.in = &knemdInputs{warm: knemdWarmSpecs(), missOff: rng.Int63n(missSpan)}
	for _, s := range k.in.warm {
		b, _ := json.Marshal(s) // plain fields always marshal
		k.in.warmBody = append(k.in.warmBody, b)
	}
	if err := k.prefill(rng); err != nil {
		return nil, err
	}
	rep := newReport()
	rep.note("store filesystem %s (%s) holds the pre-filled ledger of %d records; the serving daemon's store is in memory",
		fsType(k.root), k.root, knemdLedger)

	// Set-up: boot on the durable ledger (WAL replay, cache rebuild,
	// readiness) several times.
	var setup, replay []float64
	for i := 0; i < knemdBoots; i++ {
		dt, rms, err := k.boot(k.root)
		if err != nil {
			return nil, fmt.Errorf("knemd boot: %w", err)
		}
		k.shutdown()
		setup = append(setup, dt.Seconds())
		replay = append(replay, rms)
	}
	rep.E2E["setup_s"] = median(setup)
	rep.Traced["setup_s"] = rep.E2E["setup_s"]
	rep.note("samples setup boots=%d", len(setup))

	// The serving daemon keeps its ledger in memory: fsync latency on a
	// shared disk varies too much run to run to gate on, so WAL and
	// artefact write costs are measured in the store.* layer metrics.
	if _, _, err := k.boot(""); err != nil {
		return nil, fmt.Errorf("knemd boot: %w", err)
	}
	defer k.shutdown()
	if err := k.warmUp(rep); err != nil {
		return nil, err
	}

	var all []jobSample
	if !cfg.Trace {
		p := k.pass(secs(cfg.Seconds), false, nil)
		k.account(rep, p)
		knemdE2E(rep, p, rep.E2E, "untraced")
		rep.E2E["mem_mb"] = p.HeapGrowthMiB / float64(p.Done) * 1e4
		k.verify(rep, p.Samples)
		return rep, nil
	}

	// Trace mode: an untraced HTTP reference pass, then the traced run —
	// half over HTTP (the overhead comparison), half in-process (the stage
	// breakdown).
	ref := k.pass(secs(cfg.Seconds/2), false, nil)
	k.account(rep, ref)
	knemdE2E(rep, ref, rep.E2E, "untraced")
	rep.E2E["mem_mb"] = ref.HeapGrowthMiB / float64(ref.Done) * 1e4
	all = append(all, ref.Samples...)

	tr := NewTracer()
	st0 := k.d.Stats()
	hp := k.pass(secs(cfg.Seconds/2), false, tr)
	k.account(rep, hp)
	httpHit := knemdE2E(rep, hp, rep.Traced, "traced-http")
	rep.Traced["mem_mb"] = hp.HeapGrowthMiB / float64(hp.Done) * 1e4
	ip := k.pass(secs(cfg.Seconds/2), true, tr)
	k.account(rep, ip)
	inHit := knemdE2E(rep, ip, map[string]float64{}, "traced-inproc")
	st1 := k.d.Stats()
	all = append(all, hp.Samples...)
	all = append(all, ip.Samples...)

	L := rep.Layer
	L["api.canonicalize_us_p50"] = median(tr.Durations("api.canonicalize")) / 1e3
	sub := summarize(scale(tr.Durations("serve.submit"), 1e-3))
	L["serve.submit_us_p50"] = sub.P50
	L["serve.submit_us_p99"] = sub.P99
	rep.noteSummary("serve.submit", sub)
	var queue, runMS []float64
	for _, s := range ip.Samples {
		if s.QueueMS >= 0 {
			queue = append(queue, s.QueueMS)
		}
		if s.RunMS >= 0 {
			runMS = append(runMS, s.RunMS)
		}
	}
	q := summarize(queue)
	L["scheduler.queue_wait_ms_p50"] = q.P50
	L["scheduler.queue_wait_ms_p99"] = q.P99
	rep.noteSummary("scheduler queue wait", q)
	L["serve.run_ms_p50"] = median(runMS)
	L["serve.http_us_p50"] = httpHit - inHit
	if n := (st1.CacheHits - st0.CacheHits) + (st1.CacheMisses - st0.CacheMisses); n > 0 {
		L["cache.hit_ratio"] = float64(st1.CacheHits-st0.CacheHits) / float64(n)
	}
	L["serve.replay_ms"] = median(replay)
	if err := k.replayStore(rep, append(hp.Samples, ip.Samples...)); err != nil {
		return nil, fmt.Errorf("knemd store replay: %w", err)
	}
	k.verify(rep, all)
	writeTrace(cfg, "knemd-closed", tr, rep)
	return rep, nil
}

// stageMS is the time between a record's first from and first to
// transitions, in milliseconds; -1 when either is missing.
func stageMS(r store.Record, from, to store.State) float64 {
	var a, b time.Time
	for _, t := range r.Transitions {
		if t.State == from && a.IsZero() {
			a = t.At
		}
		if t.State == to && b.IsZero() {
			b = t.At
		}
	}
	if a.IsZero() || b.IsZero() {
		return -1
	}
	return float64(b.Sub(a)) / 1e6
}

func scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}
