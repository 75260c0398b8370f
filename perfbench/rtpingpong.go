package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/mem"
	"knemesis/internal/rt"
)

// rtWindow is the stream phases' outstanding operations per side, the
// osu_bw shape of the repo's RTStreamBW measurement.
const rtWindow = 4

// rtPhase is one phase of rt-pingpong. A rep of a phase is a fresh
// two-rank job running a fixed number of operations. The window is spent
// in rounds, each one rep of every phase in this fixed order, so a slow
// spell of the host falls on all phases alike.
type rtPhase struct {
	Name   string // metric suffix
	Mode   string // rt large-message mode
	Size   int
	Stream bool // windowed one-way stream (else ping-pong)
	Ops    int  // round trips or messages per rep
}

var rtPhases = []rtPhase{
	{"64B", "single-copy", 64, false, 20000},
	{"4KiB", "single-copy", 4 << 10, false, 10000},
	{"1MiB.single-copy", "single-copy", 1 << 20, true, 512},
	{"1MiB.eager", "eager", 1 << 20, true, 128},
}

// rtCounts are the World's protocol-path counters after one rep.
type rtCounts struct {
	Fastbox, Eager, Rndv, Bytes int64
}

// rtPhaseResult is what one phase measured.
type rtPhaseResult struct {
	OneWayUS []float64 // ping-pong: half of every round trip
	RateHz   []float64 // ping-pong: messages per second of every rep
	MsgUS    []float64 // stream: per-message time of every rep
	WaitMS   []float64 // stream, traced: rank 0's time in Wait per rep
	SetupNS  []float64 // job construction per rep
	Counts   rtCounts  // first rep
	Reps     int

	// want holds the payload pattern of each window slot; bufs the
	// ranks' payload buffers, allocated by the first rep and reused (rt
	// buffers are plain memory, valid beyond the job that allocated them).
	want [][]byte
	bufs [2][]comm.Buf
	recv comm.Buf
}

// rtRunner runs rt-pingpong passes.
type rtRunner struct {
	seed  int64
	opSeq uint64
	leaks int64
}

// rep runs one job of a phase and checks its payloads.
func (r *rtRunner) rep(rep *report, ph int, res *rtPhaseResult, lane *Lane) {
	p := rtPhases[ph]
	slots := 1
	if p.Stream {
		slots = rtWindow
	}
	if res.want == nil {
		for s := 0; s < slots; s++ {
			b := make([]byte, p.Size)
			mem.FillPatternBytes(b, uint64(r.seed)*1000003+uint64(ph)*64+uint64(s))
			res.want = append(res.want, b)
		}
	}
	t0 := time.Now()
	j, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2, RTMode: p.Mode})
	res.SetupNS = append(res.SetupNS, float64(time.Since(t0)))
	if err != nil {
		rep.refuse("rt-pingpong %s: build: %v", p.Name, err)
		return
	}
	var bad atomic.Int64 // payload slots that arrived wrong
	var elapsed, waitNS float64
	var samples []float64 // ping-pong one-way times, rank 0
	if !p.Stream {
		samples = make([]float64, 0, p.Ops)
	}
	rep.Attempted += int64(p.Ops)

	err = j.Run(func(c comm.Peer) {
		me := c.Rank()
		var l *Lane // lanes are single-goroutine: only rank 0 records
		if me == 0 {
			l = lane
		}
		if res.bufs[me] == nil {
			for s := 0; s < slots; s++ {
				res.bufs[me] = append(res.bufs[me], c.Alloc(int64(p.Size)))
			}
			if me == 0 {
				res.recv = c.Alloc(int64(p.Size))
			}
		}
		bufs := res.bufs[me]
		for s, b := range bufs {
			if me == 0 {
				copy(b.Bytes(), res.want[s])
			} else {
				clear(b.Bytes())
			}
		}
		ack := comm.R(bufs[0], 0, 0)
		c.Barrier()
		if !p.Stream {
			if me == 1 {
				for i := 0; i < p.Ops; i++ {
					c.Recv(0, 0, comm.Whole(bufs[0]))
					c.Send(0, 0, comm.Whole(bufs[0]))
				}
				if !bytes.Equal(bufs[0].Bytes(), res.want[0]) {
					bad.Add(1)
				}
				return
			}
			recv := res.recv
			clear(recv.Bytes())
			sendName, recvName := "rt.send."+p.Name, "rt.recv."+p.Name
			start := time.Now()
			for i := 0; i < p.Ops; i++ {
				r.opSeq++
				l.Begin("bench.roundtrip", r.opSeq)
				t := time.Now()
				l.Begin(sendName, r.opSeq)
				c.Send(1, 0, comm.Whole(bufs[0]))
				l.End()
				l.Begin(recvName, r.opSeq)
				c.Recv(1, 0, comm.Whole(recv))
				l.End()
				d := float64(time.Since(t))
				l.End()
				samples = append(samples, d/2/1e3)
			}
			elapsed = float64(time.Since(start))
			if !bytes.Equal(recv.Bytes(), res.want[0]) {
				bad.Add(1)
			}
			return
		}

		reqs := make([]comm.Request, rtWindow)
		var op uint64
		if l != nil {
			r.opSeq++
			op = r.opSeq
		}
		wait := func(req comm.Request) {
			if l == nil {
				c.Wait(req)
				return
			}
			l.Begin("rt.wait."+p.Name, op)
			t := time.Now()
			c.Wait(req)
			waitNS += float64(time.Since(t))
			l.End()
		}
		l.Begin("bench.stream", op)
		start := time.Now()
		for i := 0; i < p.Ops; i++ {
			s := i % rtWindow
			if reqs[s] != nil {
				wait(reqs[s])
			}
			if me == 0 {
				reqs[s] = c.Isend(1, 0, comm.Whole(bufs[s]))
			} else {
				reqs[s] = c.Irecv(0, 0, comm.Whole(bufs[s]))
			}
		}
		for _, req := range reqs {
			if req != nil {
				wait(req)
			}
		}
		if me == 0 {
			c.Recv(1, 1, ack) // the stream is fully delivered
			elapsed = float64(time.Since(start))
			l.End()
			return
		}
		l.End()
		c.Send(0, 1, ack)
		for s := range bufs {
			if !bytes.Equal(bufs[s].Bytes(), res.want[s]) {
				bad.Add(1)
			}
		}
	})
	w := j.(interface{ World() *rt.World }).World()
	if minted, pooled := w.EnvelopeAudit(); minted != pooled {
		r.leaks += int64(minted - pooled)
		rep.fail("rt-pingpong %s: envelope audit: minted %d != pooled %d", p.Name, minted, pooled)
	}
	if err != nil {
		rep.refuse("rt-pingpong %s: run: %v", p.Name, err)
		return
	}
	if n := bad.Load(); n > 0 {
		rep.Failed += int64(p.Ops) - 1 // every operation of the rep is suspect
		rep.fail("rt-pingpong %s: %d payload buffer(s) differ from the sent pattern", p.Name, n)
		return
	}
	if res.Reps == 0 {
		res.Counts = rtCounts{w.FastboxMsgs.Load(), w.EagerMsgs.Load(), w.RndvMsgs.Load(), w.BytesMoved.Load()}
	}
	res.Reps++
	if p.Stream {
		res.MsgUS = append(res.MsgUS, elapsed/float64(p.Ops)/1e3)
		if lane != nil {
			res.WaitMS = append(res.WaitMS, waitNS/1e6)
		}
		return
	}
	res.OneWayUS = append(res.OneWayUS, samples...)
	res.RateHz = append(res.RateHz, float64(2*p.Ops)/(elapsed/1e9))
}

// measure runs rounds of one rep per phase until the window closes.
func (r *rtRunner) measure(rep *report, window time.Duration, lane *Lane) []rtPhaseResult {
	out := make([]rtPhaseResult, len(rtPhases))
	end := after(window)
	for round := 0; round == 0 || !end.passed(); round++ {
		for ph := range rtPhases {
			r.rep(rep, ph, &out[ph], lane)
		}
	}
	return out
}

// rtE2E reduces the phases to the end-to-end metrics.
func rtE2E(rep *report, res []rtPhaseResult, into map[string]float64, label string) {
	var setup []float64
	for _, p := range res {
		for _, ns := range p.SetupNS {
			setup = append(setup, ns/1e9)
		}
	}
	into["setup_s"] = median(setup)
	small := summarize(res[0].OneWayUS)
	into["lat_us_p50"] = small.P50
	into["lat_us_p99"] = small.P99
	into["ops_per_s"] = median(res[1].RateHz)
	into["light_us_p50"] = median(res[2].MsgUS)
	into["heavy_us_p50"] = median(res[3].MsgUS)
	rep.noteSummary(label+" 64B one-way", small)
	rep.note("samples %s reps per phase: %d %d %d %d (%s), world builds=%d",
		label, res[0].Reps, res[1].Reps, res[2].Reps, res[3].Reps, rtPhaseOps(), len(setup))
	for i, name := range []string{"single-copy", "eager"} {
		if us := median(res[2+i].MsgUS); us > 0 {
			rep.note("%s rt_bw_1MiB_%s_MiBps %.6g", label, name, 1e6/us)
		}
	}
	rep.note("%s rt_lat_4KiB_us_p50 %.6g", label, median(res[1].OneWayUS))
}

func runRTPingPong(cfg config) (*report, error) {
	r := &rtRunner{seed: cfg.Seed}
	rep := newReport()
	if !cfg.Trace {
		rtE2E(rep, r.measure(rep, secs(cfg.Seconds), nil), rep.E2E, "untraced")
		return rep, nil
	}
	rtE2E(rep, r.measure(rep, secs(cfg.Seconds/2), nil), rep.E2E, "untraced")
	tr := NewTracer()
	res := r.measure(rep, secs(cfg.Seconds), tr.Lane())
	rtE2E(rep, res, rep.Traced, "traced")

	L := rep.Layer
	var c rtCounts
	for _, p := range res {
		c.Fastbox += p.Counts.Fastbox
		c.Eager += p.Counts.Eager
		c.Rndv += p.Counts.Rndv
		c.Bytes += p.Counts.Bytes
	}
	L["rt.fastbox_msgs"] = float64(c.Fastbox)
	L["rt.eager_msgs"] = float64(c.Eager)
	L["rt.rndv_msgs"] = float64(c.Rndv)
	L["rt.bytes_moved"] = float64(c.Bytes)
	if small := res[0].Counts; small.Eager > 0 {
		L["rt.fastbox_share"] = float64(small.Fastbox) / float64(small.Eager)
	}
	for _, ph := range []string{"64B", "4KiB"} {
		L["rt.send_ns_p50."+ph] = median(tr.Durations("rt.send." + ph))
		L["rt.recv_ns_p50."+ph] = median(tr.Durations("rt.recv." + ph))
	}
	L["rt.wait_ms.1MiB.single-copy"] = median(res[2].WaitMS)
	L["rt.wait_ms.1MiB.eager"] = median(res[3].WaitMS)
	L["rt.envelope_leaks"] = float64(r.leaks)
	rep.note("rt.* message counts cover one rep of each phase (%s)", rtPhaseOps())
	writeTrace(cfg, "rt-pingpong", tr, rep)
	return rep, nil
}

// rtPhaseOps describes the fixed per-rep operation counts.
func rtPhaseOps() string {
	s := ""
	for i, p := range rtPhases {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %d", p.Name, p.Ops)
	}
	return s
}
