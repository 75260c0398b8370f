package experiments

import (
	"context"
	"fmt"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/imb"
	"knemesis/internal/rt"
	"knemesis/internal/units"
)

// The rt experiment runs the same IMB drivers the simulator figures use —
// unchanged, through the engine-neutral comm interface — on the real
// goroutine runtime, so wall-clock rows flow through the same typed-JSON /
// rendering pipeline as every paper artefact. PingPong measures the
// eager-vs-single-copy trade-off between two rank goroutines; Sendrecv
// measures the periodic-chain pattern across four.
//
// Unlike the simulator experiments these rows are wall-clock measurements:
// values vary run to run (tests assert their shape, not their numbers),
// and the sweep runs serially regardless of Env.Workers so concurrent
// stacks do not distort the timings.

func init() {
	RegisterExperiment(Experiment{
		ID: "rt", Order: 13,
		Title: "Real-runtime IMB rows (wall clock): PingPong + Sendrecv per large-message mode",
		Run:   func(ctx context.Context, env Env) (Result, error) { return rtBench(ctx, env) },
	})
}

// DefaultRTSizes spans the rt sweep: eager territory, the 64 KiB
// threshold, and deep rendezvous territory.
func DefaultRTSizes() []int64 {
	return []int64{4 * units.KiB, 64 * units.KiB, 1 * units.MiB, 4 * units.MiB}
}

// RTRow is one measured (bench, mode, size) cell — the typed JSON artefact
// behind the rendered table.
type RTRow struct {
	Bench  string // "PingPong" or "Sendrecv"
	Mode   string // eager | single-copy | offload
	Ranks  int
	Size   int64
	TimeUS float64 // wall-clock per operation (one-way for PingPong)
	MiBps  float64 // aggregate throughput, IMB accounting
}

// rtResult couples the rendered table with its typed rows.
type rtResult struct {
	Table
	RTRows []RTRow
}

func (r rtResult) WriteFiles(dir string) error { return WriteJSON(dir, r.ID, r.RTRows) }

// RTRows runs the sweep and returns its typed rows directly.
func RTRows(env Env) ([]RTRow, error) {
	res, err := rtBench(context.Background(), env)
	if err != nil {
		return nil, err
	}
	return res.RTRows, nil
}

// --- rt fast-path perf suite -------------------------------------------
//
// RTMsgRate and RTStreamBW are the regression-gated rt benchmarks: fixed
// amounts of work (so two runs are comparable as plain seconds) measuring
// the two ends the paper's Nemesis substrate optimizes — small-message
// rate (the fastbox / zero-alloc envelope path) and large-message stream
// bandwidth (the pipelined copy path). cmd/simbench runs them at default
// scale and records them into BENCH_5.json; the suites section of that
// file holds the before/after wall-clock comparison.

// RTPerfPoint is one measured rt perf workload.
type RTPerfPoint struct {
	Workload string  // "msgrate" or "streambw"
	Mode     string  // eager | single-copy | offload
	Size     int64   // message size in bytes
	Msgs     int     // messages moved
	Secs     float64 // wall-clock for the whole workload
	MsgsPerS float64 // msgrate: messages per second
	MiBps    float64 // streambw: payload MiB per second
}

// RTMsgRate measures small-message rate: `rounds` blocking ping-pong round
// trips of `size` bytes between two ranks (2 messages per round).
func RTMsgRate(mode string, size, rounds int) (RTPerfPoint, error) {
	m, err := rt.ParseMode(mode)
	if err != nil {
		return RTPerfPoint{}, err
	}
	w := rt.NewWorld(2, rt.Config{Large: m})
	start := time.Now()
	err = w.Run(func(r *rt.Rank) {
		buf := make([]byte, size)
		if r.ID() == 0 {
			for i := 0; i < rounds; i++ {
				r.Send(1, 0, buf)
				r.Recv(1, 0, buf)
			}
		} else {
			for i := 0; i < rounds; i++ {
				r.Recv(0, 0, buf)
				r.Send(0, 0, buf)
			}
		}
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		return RTPerfPoint{}, err
	}
	msgs := 2 * rounds
	return RTPerfPoint{Workload: "msgrate", Mode: mode, Size: int64(size),
		Msgs: msgs, Secs: secs, MsgsPerS: float64(msgs) / secs}, nil
}

// rtStreamWindow is the number of outstanding operations each side of the
// bandwidth stream keeps in flight — the osu_bw/IMB uniband shape, so the
// measurement exercises the transport pipeline rather than the app's
// posting latency (a receive is always pre-posted when the next message
// starts arriving).
const rtStreamWindow = 4

// RTStreamBW measures large-message bandwidth: `count` sends of `size`
// bytes from rank 0 to rank 1 with a window of rtStreamWindow outstanding
// operations per side (a unidirectional stream, the shape of the paper's
// bandwidth figures).
func RTStreamBW(mode string, size, count int) (RTPerfPoint, error) {
	m, err := rt.ParseMode(mode)
	if err != nil {
		return RTPerfPoint{}, err
	}
	w := rt.NewWorld(2, rt.Config{Large: m})
	start := time.Now()
	err = w.Run(func(r *rt.Rank) {
		bufs := make([][]byte, rtStreamWindow)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		reqs := make([]*rt.Request, rtStreamWindow)
		for i := 0; i < count; i++ {
			slot := i % rtStreamWindow
			if reqs[slot] != nil {
				r.Wait(reqs[slot])
			}
			if r.ID() == 0 {
				reqs[slot] = r.Isend(1, 0, bufs[slot])
			} else {
				reqs[slot] = r.Irecv(0, 0, bufs[slot])
			}
		}
		for _, req := range reqs {
			if req != nil {
				r.Wait(req)
			}
		}
		if r.ID() == 0 {
			r.Recv(1, 1, nil) // completion ack: the stream is fully delivered
		} else {
			r.Send(0, 1, nil)
		}
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		return RTPerfPoint{}, err
	}
	return RTPerfPoint{Workload: "streambw", Mode: mode, Size: int64(size),
		Msgs: count, Secs: secs,
		MiBps: float64(size) * float64(count) / (1 << 20) / secs}, nil
}

func rtBench(ctx context.Context, env Env) (rtResult, error) {
	res := rtResult{Table: Table{
		ID:     "rt",
		Title:  "Real-runtime IMB benchmarks (wall clock, goroutine ranks)",
		Header: []string{"Bench", "Mode", "Ranks", "Size", "time(us)", "MiB/s"},
	}}
	sizes := env.RTSizes
	if len(sizes) == 0 {
		sizes = DefaultRTSizes()
	}

	benches := []struct {
		name  string
		ranks int
		run   func(j comm.Job, sizes []int64) ([]RTRow, error)
	}{
		{"PingPong", 2, func(j comm.Job, sizes []int64) ([]RTRow, error) {
			r, err := imb.RunPingPong(j, sizes)
			if err != nil {
				return nil, err
			}
			rows := make([]RTRow, 0, len(r.Points))
			for _, pt := range r.Points {
				rows = append(rows, RTRow{Size: pt.Size,
					TimeUS: pt.Time.Microseconds(), MiBps: pt.Throughput})
			}
			return rows, nil
		}},
		{"Sendrecv", 4, func(j comm.Job, sizes []int64) ([]RTRow, error) {
			r, err := imb.RunSendrecv(j, sizes)
			if err != nil {
				return nil, err
			}
			rows := make([]RTRow, 0, len(r.Points))
			for _, pt := range r.Points {
				rows = append(rows, RTRow{Size: pt.Size,
					TimeUS: pt.Time.Microseconds(), MiBps: pt.Throughput})
			}
			return rows, nil
		}},
	}

	done := 0
	for _, b := range benches {
		for _, mode := range rt.ModeNames() {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("experiments: cut after %d/%d cases: %w",
					done, len(benches)*len(rt.ModeNames()), err)
			}
			job, err := comm.NewJob("rt", comm.JobSpec{Ranks: b.ranks, RTMode: mode, RTProcs: env.RTProcs})
			if err != nil {
				return res, err
			}
			rows, err := b.run(comm.WithContext(ctx, job), sizes)
			if err != nil {
				return res, fmt.Errorf("rt %s/%s: %w", b.name, mode, err)
			}
			for _, row := range rows {
				row.Bench = b.name
				row.Mode = mode
				row.Ranks = b.ranks
				res.RTRows = append(res.RTRows, row)
				res.Rows = append(res.Rows, []string{
					row.Bench,
					row.Mode,
					fmt.Sprintf("%d", row.Ranks),
					units.FormatSize(row.Size),
					fmt.Sprintf("%.2f", row.TimeUS),
					fmt.Sprintf("%.0f", row.MiBps),
				})
			}
			done++
		}
	}
	return res, nil
}
