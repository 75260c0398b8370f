package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	_ "knemesis/internal/mpi" // registers the "sim" engine
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// simJob is one entry of the sim-paper job list: one simulated job
// running one imb driver at one size.
type simJob struct {
	Name  string // stable identity, the golden file's key
	Group string // pingpong (cache-model bound) | alltoall | cluster (engine bound)
	Bench string // imb driver
	Size  int64
	Spec  func() (comm.JobSpec, error)
}

// simPaperJobs is the fixed job list, in its canonical order:
//   - cross-die PingPong on the Xeon E5345 at 64 KiB..4 MiB for every
//     paper LMT preset (the Fig. 4/5 shape);
//   - 8-rank Alltoall at 1/8/64 KiB on default and knem (Fig. 7);
//   - 16-rank Allreduce and Alltoall on the fat-tree-16 cluster with
//     spread placement and hierarchical collectives.
func simPaperJobs() []simJob {
	var jobs []simJob
	for _, lmt := range []string{"default", "vmsplice", "knem", "knem-ioat", "cma"} {
		for _, size := range []int64{64 * units.KiB, 256 * units.KiB, units.MiB, 4 * units.MiB} {
			jobs = append(jobs, simJob{
				Name: fmt.Sprintf("pingpong/%s/%d", lmt, size), Group: "pingpong", Bench: "pingpong", Size: size,
				Spec: func() (comm.JobSpec, error) {
					m := topo.XeonE5345()
					a, b := m.PairDifferentDies()
					return comm.JobSpec{Ranks: 2, Machine: m, Cores: []topo.CoreID{a, b}, LMT: lmt}, nil
				},
			})
		}
	}
	for _, lmt := range []string{"default", "knem"} {
		for _, size := range []int64{units.KiB, 8 * units.KiB, 64 * units.KiB} {
			jobs = append(jobs, simJob{
				Name: fmt.Sprintf("alltoall/%s/%d", lmt, size), Group: "alltoall", Bench: "alltoall", Size: size,
				Spec: func() (comm.JobSpec, error) { return comm.JobSpec{Ranks: 8, LMT: lmt}, nil },
			})
		}
	}
	for _, c := range []struct {
		bench string
		size  int64
	}{{"allreduce", 4 * units.KiB}, {"allreduce", 64 * units.KiB}, {"alltoall", units.KiB}, {"alltoall", 16 * units.KiB}} {
		jobs = append(jobs, simJob{
			Name: fmt.Sprintf("cluster/fat-tree-16/%s/%d", c.bench, c.size), Group: "cluster", Bench: c.bench, Size: c.size,
			Spec: func() (comm.JobSpec, error) {
				cl, err := topo.LookupCluster("fat-tree-16")
				if err != nil {
					return comm.JobSpec{}, err
				}
				return comm.JobSpec{Ranks: 16, Topology: cl, Placement: "spread"}, nil
			},
		})
	}
	return jobs
}

// runImb runs a job's driver.
func (sj simJob) runImb(j comm.Job) (imb.Result, error) {
	sizes := []int64{sj.Size}
	switch sj.Bench {
	case "pingpong":
		return imb.RunPingPong(j, sizes)
	case "alltoall":
		return imb.RunAlltoall(j, sizes)
	case "allreduce":
		return imb.RunAllreduce(j, sizes)
	}
	return imb.Result{}, fmt.Errorf("unknown bench %q", sj.Bench)
}

// simGoldenJSON holds every job's expected result table, keyed by job
// name (regenerate with `go test -run TestSimPaperGolden -update`).
//
//go:embed testdata/sim-paper.golden.json
var simGoldenJSON []byte

// simGolden parses the golden file into compact JSON per job.
func simGolden() (map[string][]byte, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(simGoldenJSON, &raw); err != nil {
		return nil, fmt.Errorf("sim-paper golden: %w", err)
	}
	out := make(map[string][]byte, len(raw))
	for name, r := range raw {
		var b bytes.Buffer
		if err := json.Compact(&b, r); err != nil {
			return nil, fmt.Errorf("sim-paper golden %s: %w", name, err)
		}
		out[name] = b.Bytes()
	}
	return out, nil
}

// simCounts are the model's exact work counts over one pass of the job
// list; they depend on the job list alone, never on the host.
type simCounts struct {
	Events, SimulatedNS, L2Accesses, L2Misses, NetMsgs, NetByteHops int64
	BusBytes                                                        float64
}

// simPass is what one pass over the job list measured.
type simPass struct {
	RunNS   map[string][]float64 // group -> imb.Run wall nanoseconds per job
	SetupNS float64              // job construction, summed over the pass
	Counts  simCounts
	Jobs    int
}

// simRunner runs sim-paper passes.
type simRunner struct {
	jobs   []simJob
	golden map[string][]byte
	rng    *rand.Rand
	opSeq  uint64
}

// pass runs every job once in a seed-shuffled order.
func (s *simRunner) pass(rep *report, lane *Lane) simPass {
	p := simPass{RunNS: map[string][]float64{}}
	order := s.rng.Perm(len(s.jobs))
	for _, i := range order {
		sj := s.jobs[i]
		s.opSeq++
		rep.Attempted++
		lane.Begin("bench.job", s.opSeq)

		lane.Begin("comm.newjob", s.opSeq)
		t0 := time.Now()
		spec, err := sj.Spec()
		var j comm.Job
		if err == nil {
			j, err = comm.NewJob("sim", spec)
		}
		p.SetupNS += float64(time.Since(t0))
		lane.End()
		if err != nil {
			lane.End()
			rep.refuse("sim-paper %s: build: %v", sj.Name, err)
			continue
		}
		var events int64
		if lane != nil {
			simEngine(j).SetTrace(func(sim.Time, uint64, sim.Domain) { events++ })
		}

		lane.Begin("imb.run", s.opSeq)
		t1 := time.Now()
		res, err := sj.runImb(j)
		dt := float64(time.Since(t1))
		lane.End()
		if err != nil {
			lane.End()
			rep.refuse("sim-paper %s: run: %v", sj.Name, err)
			continue
		}
		p.RunNS[sj.Group] = append(p.RunNS[sj.Group], dt)
		p.Jobs++

		got, err := json.Marshal(res)
		if err != nil || !bytes.Equal(got, s.golden[sj.Name]) {
			rep.fail("sim-paper %s: result table differs from the golden file: %s", sj.Name, got)
		}
		if lane != nil {
			p.Counts.add(j, events)
		}
		lane.End()
	}
	return p
}

// simEngine returns the event engine behind a sim job.
func simEngine(j comm.Job) *sim.Engine {
	if cs := simCluster(j); cs != nil {
		return cs.Eng
	}
	return j.(interface{ Stack() *core.Stack }).Stack().M.Eng
}

// simCluster returns a sim job's multi-node stack, or nil.
func simCluster(j comm.Job) *core.ClusterStack {
	if c, ok := j.(interface{ Cluster() *core.ClusterStack }); ok {
		return c.Cluster()
	}
	return nil
}

// add folds a finished job's model counters into c.
func (c *simCounts) add(j comm.Job, events int64) {
	c.Events += events
	u := j.Usage()
	c.SimulatedNS += int64(u.Elapsed / sim.Nanosecond)
	c.BusBytes += u.BusBytesServed
	var stacks []*core.Stack
	if cs := simCluster(j); cs != nil {
		stacks = cs.Nodes
		c.NetMsgs += cs.Net.Msgs
		c.NetByteHops += cs.Net.ByteHops
	} else {
		stacks = []*core.Stack{j.(interface{ Stack() *core.Stack }).Stack()}
	}
	for _, st := range stacks {
		l2 := st.M.TotalL2Stats()
		c.L2Accesses += l2.Accesses
		c.L2Misses += l2.Misses
	}
}

// simMeasure runs passes until the window closes, finishing the pass in
// progress so every pass runs the whole job list.
func (s *simRunner) measure(rep *report, window time.Duration, lane *Lane) []simPass {
	var passes []simPass
	end := after(window)
	for len(passes) == 0 || !end.passed() {
		passes = append(passes, s.pass(rep, lane))
	}
	return passes
}

// simE2E reduces passes to the end-to-end metrics. Per-job times span
// three orders of magnitude across the job list, so a pooled median would
// sit on the boundary between two job kinds; the typical latencies are
// per-pass means instead (every pass runs the same list), median over
// passes. The p99 is pooled over every job.
func simE2E(rep *report, passes []simPass, into map[string]float64, label string) {
	var all, setup, perJob, light, heavy []float64
	var runNS float64
	jobs := 0
	for _, p := range passes {
		setup = append(setup, p.SetupNS/1e9)
		jobs += p.Jobs
		var passNS, lightNS, heavyNS float64
		var nLight, nHeavy int
		for group, ns := range p.RunNS {
			for _, x := range ns {
				passNS += x
				all = append(all, x/1e3)
				if group == "pingpong" {
					lightNS += x
					nLight++
				} else {
					heavyNS += x
					nHeavy++
				}
			}
		}
		runNS += passNS
		if p.Jobs > 0 {
			perJob = append(perJob, passNS/float64(p.Jobs)/1e3)
		}
		if nLight > 0 {
			light = append(light, lightNS/float64(nLight)/1e3)
		}
		if nHeavy > 0 {
			heavy = append(heavy, heavyNS/float64(nHeavy)/1e3)
		}
	}
	lat := summarize(all)
	into["setup_s"] = median(setup)
	if runNS > 0 {
		into["ops_per_s"] = float64(jobs) / (runNS / 1e9)
	}
	into["lat_us_p50"] = median(perJob)
	into["lat_us_p99"] = lat.P99
	into["light_us_p50"] = median(light)
	into["heavy_us_p50"] = median(heavy)
	rep.noteSummary(label+" job run time", lat)
	rep.note("samples %s passes=%d of %d jobs (light: pingpong, heavy: alltoall+cluster)", label, len(passes), len(simPaperJobs()))
}

func runSimPaper(cfg config) (*report, error) {
	golden, err := simGolden()
	if err != nil {
		return nil, err
	}
	jobs := simPaperJobs()
	for _, sj := range jobs {
		if golden[sj.Name] == nil {
			return nil, fmt.Errorf("sim-paper: no golden result for job %s", sj.Name)
		}
	}
	s := &simRunner{jobs: jobs, golden: golden, rng: rand.New(rand.NewSource(cfg.Seed))}
	rep := newReport()
	if !cfg.Trace {
		simE2E(rep, s.measure(rep, secs(cfg.Seconds), nil), rep.E2E, "untraced")
		return rep, nil
	}

	// Trace mode: an untraced reference pass of half the length, then the
	// traced pass of the full length.
	simE2E(rep, s.measure(rep, secs(cfg.Seconds/2), nil), rep.E2E, "untraced")
	tr := NewTracer()
	passes := s.measure(rep, secs(cfg.Seconds), tr.Lane())
	simE2E(rep, passes, rep.Traced, "traced")

	c := passes[0].Counts
	L := rep.Layer
	L["sim.events"] = float64(c.Events)
	L["sim.simulated_us"] = float64(c.SimulatedNS) / 1e3
	L["hw.l2_accesses"] = float64(c.L2Accesses)
	if c.L2Accesses > 0 {
		L["hw.l2_miss_ratio"] = float64(c.L2Misses) / float64(c.L2Accesses)
	}
	L["hw.bus_bytes"] = c.BusBytes
	L["nemesis.net_msgs"] = float64(c.NetMsgs)
	L["nemesis.net_byte_hops"] = float64(c.NetByteHops)
	for i, p := range passes {
		if p.Counts != c {
			rep.fail("sim-paper: pass %d model counts %+v differ from pass 0 %+v", i, p.Counts, c)
		}
	}
	var runNS float64
	var events int64
	perGroup := map[string][]float64{}
	for _, p := range passes {
		events += p.Counts.Events
		for group, ns := range p.RunNS {
			var total float64
			for _, x := range ns {
				total += x
			}
			runNS += total
			perGroup[group] = append(perGroup[group], total/1e6)
		}
	}
	if events > 0 {
		L["sim.ns_per_event"] = runNS / float64(events)
	}
	for _, g := range []string{"pingpong", "alltoall", "cluster"} {
		L["imb.run_ms."+g] = median(perGroup[g])
	}
	rep.note("per-pass counts: sim.events, sim.simulated_us, hw.*, nemesis.* cover one pass of %d jobs; imb.run_ms.* is the median per-pass group total", len(jobs))
	writeTrace(cfg, "sim-paper", tr, rep)
	return rep, nil
}
