package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"

	"knemesis/internal/core"
	"knemesis/internal/experiments"
	"knemesis/internal/imb"
	"knemesis/internal/knem"
	"knemesis/internal/mpi"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// Table maps every workload name a baseline may pin to the func that runs
// it:
//
//   - the Figure 3-7 KNEM/LMT sweeps, the §3.5 threshold study and the
//     multipair contention sweep (deterministic Sim metrics),
//   - the real-runtime fast-path rows rt/* (measured Perf metrics),
//   - the lane-phases workloads (simulated-time determinism across engine
//     modes, measured speedup),
//   - knemd's load-generation selftest and crash-recovery workload (exact
//     shape and recovery counts, measured service latencies).
var Table = map[string]Func{
	"fig3/vmsplice/shared": pingPong(core.Options{Kind: core.VmspliceLMT}, true),
	"fig3/vmsplice/cross":  pingPong(core.Options{Kind: core.VmspliceLMT}, false),
	"fig3/writev/shared":   pingPong(core.Options{Kind: core.VmspliceWritevLMT}, true),
	"fig3/writev/cross":    pingPong(core.Options{Kind: core.VmspliceWritevLMT}, false),
	"fig4/default":         pingPong(core.Options{Kind: core.DefaultLMT}, true),
	"fig4/knem":            pingPong(core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, true),
	"fig4/knem-ioat":       pingPong(core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, true),
	"fig5/default":         pingPong(core.Options{Kind: core.DefaultLMT}, false),
	"fig5/knem":            pingPong(core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, false),
	"fig5/knem-ioat":       pingPong(core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, false),
	"fig6/sync":            knemMode(knem.SyncCopy),
	"fig6/async-kthread":   knemMode(knem.AsyncKThread),
	"fig6/sync+ioat":       knemMode(knem.SyncIOAT),
	"fig6/async+ioat":      knemMode(knem.AsyncIOAT),
	"fig7/default":         alltoall(core.Options{Kind: core.DefaultLMT}, nemesis.Config{}),
	"fig7/knem":            alltoall(core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, nemesis.Config{EagerMax: 4 * units.KiB}),
	"fig7/knem-ioat":       alltoall(core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, nemesis.Config{EagerMax: 4 * units.KiB}),
	"thresholds":           thresholds,
	"multipair":            multipair,

	"rt/msgrate/64B":               rtMsgRate(64),
	"rt/msgrate/256B":              rtMsgRate(256),
	"rt/streambw/4MiB/eager":       rtStreamBW("eager"),
	"rt/streambw/4MiB/single-copy": rtStreamBW("single-copy"),
	"rt/streambw/4MiB/offload":     rtStreamBW("offload"),

	"lanes/phases/4rank": lanes(4),
	"lanes/phases/8rank": lanes(8),

	"knemd-selftest": knemdSelftest,
	"knemd-recovery": knemdRecovery,
}

// pingSizes mirrors bench_test.go's reduced sweep.
var pingSizes = []int64{256 * units.KiB, 1 * units.MiB, 4 * units.MiB}

// rt perf workload scale: fixed work so runs are comparable as seconds.
const (
	rtMsgRateRounds = 200_000
	rtStreamMsgs    = 150
	rtStreamBytes   = int(4 * units.MiB)
)

// lanes workload scale: enough rounds and per-phase host work that the
// engine mode dominates the wall time, small enough to stay interactive.
const (
	laneReps       = 5
	laneRounds     = 12
	lanePhaseIters = 60_000
)

// laneSpeedupTarget is the parallel-engine wall-clock speedup the lanes
// workloads aim for on a multi-core host. It is a measured metric, so
// falling short only warns (a single-core host cannot reach it at all).
const laneSpeedupTarget = 1.3

// pingPong is a two-rank IMB PingPong sweep on the Xeon E5345, on a pair
// sharing an L2 cache or on two different dies.
func pingPong(opt core.Options, shared bool) Func {
	return func() (Workload, error) {
		m := topo.XeonE5345()
		var c0, c1 topo.CoreID
		if shared {
			c0, c1 = m.PairSharedCache()
		} else {
			c0, c1 = m.PairDifferentDies()
		}
		st := core.NewStack(m, []topo.CoreID{c0, c1}, opt, nemesis.Config{})
		res, err := imb.RunPingPong(mpi.NewSimJob(st), pingSizes)
		if err != nil {
			return Workload{}, err
		}
		s := make(map[string]float64, len(res.Points))
		for _, pt := range res.Points {
			s["MiB/s@"+units.FormatSize(pt.Size)] = pt.Throughput
		}
		return Workload{Sim: s}, nil
	}
}

// knemMode is the Figure 6 PingPong with the KNEM LMT forced into md.
func knemMode(md knem.Mode) Func {
	return pingPong(core.Options{Kind: core.KnemLMT, ForceKnemMode: &md}, false)
}

// alltoall is an eight-rank IMB Alltoall on every core of the E5345.
func alltoall(opt core.Options, cfg nemesis.Config) Func {
	return func() (Workload, error) {
		m := topo.XeonE5345()
		st := core.NewStack(m, m.AllCores(), opt, cfg)
		res, err := imb.RunAlltoall(mpi.NewSimJob(st), []int64{32 * units.KiB, 256 * units.KiB})
		if err != nil {
			return Workload{}, err
		}
		s := make(map[string]float64, len(res.Points))
		for _, pt := range res.Points {
			s["aggMiB/s@"+units.FormatSize(pt.Size)] = pt.Throughput
		}
		return Workload{Sim: s}, nil
	}
}

func thresholds() (Workload, error) {
	set, err := experiments.Thresholds()
	if err != nil {
		return Workload{}, err
	}
	s := make(map[string]float64, len(set))
	for _, r := range set {
		s[fmt.Sprintf("crossover-bytes:%s/%s", r.Machine, r.Placement)] = float64(r.MeasuredCrossover)
	}
	return Workload{Sim: s}, nil
}

func multipair() (Workload, error) {
	env := experiments.DefaultEnv(topo.XeonE5345())
	env.MultiSizes = []int64{1 * units.MiB} // the contention-crossover size
	rows, err := experiments.MultipairRows(env)
	if err != nil {
		return Workload{}, err
	}
	s := make(map[string]float64, len(rows))
	for _, r := range rows {
		s[fmt.Sprintf("aggMiB/s:%s/%s/%dpair", r.Backend, r.Placement, r.Pairs)] = r.AggMiBps
	}
	return Workload{Sim: s}, nil
}

// rtMsgRate is the real runtime's message rate at a fastbox size.
func rtMsgRate(size int) Func {
	return func() (Workload, error) {
		pt, err := experiments.RTMsgRate("single-copy", size, rtMsgRateRounds)
		if err != nil {
			return Workload{}, err
		}
		return Workload{Perf: map[string]float64{"msgs/s": pt.MsgsPerS}}, nil
	}
}

// rtStreamBW is the real runtime's stream bandwidth at a rendezvous size
// under one large-message mode.
func rtStreamBW(mode string) Func {
	return func() (Workload, error) {
		pt, err := experiments.RTStreamBW(mode, rtStreamBytes, rtStreamMsgs)
		if err != nil {
			return Workload{}, err
		}
		return Workload{Perf: map[string]float64{"MiB/s": pt.MiBps}}, nil
	}
}

// lanes benchmarks the parallel simulator core itself: the lane-phases
// proxy workload runs laneReps times per engine mode, serial and parallel
// interleaved in the same process so both medians see the same host
// conditions. The simulated time must be identical across every run and both
// modes — any divergence is a hard failure, not tolerance-gated drift. The
// wall-clock medians and their ratio are measured (Perf) metrics; a speedup
// below laneSpeedupTarget only warns, since a few-core host cannot reach it.
func lanes(ranks int) Func {
	return func() (Workload, error) {
		var serialWalls, parWalls []float64
		var simTime sim.Time
		for rep := 0; rep < laneReps; rep++ {
			for _, serial := range []bool{true, false} {
				res, err := experiments.LaneBench(ranks, laneRounds, lanePhaseIters, serial)
				if err != nil {
					return Workload{}, err
				}
				if rep == 0 && serial {
					simTime = res.SimTime
				} else if res.SimTime != simTime {
					return Workload{}, fmt.Errorf(
						"simulated time diverged between engine modes: %v (serial=%v) vs reference %v",
						res.SimTime, serial, simTime)
				}
				if serial {
					serialWalls = append(serialWalls, res.Wall.Seconds())
				} else {
					parWalls = append(parWalls, res.Wall.Seconds())
				}
			}
		}
		serialMed, parMed := median(serialWalls), median(parWalls)
		speedup := serialMed / parMed
		if speedup < laneSpeedupTarget {
			fmt.Fprintf(os.Stderr,
				"WARNING: lanes/%drank speedup %.2fx below the %.1fx target (measured metric; expected on few-core hosts, GOMAXPROCS=%d)\n",
				ranks, speedup, laneSpeedupTarget, runtime.GOMAXPROCS(0))
		}
		return Workload{
			Sim: map[string]float64{"simtime-us": float64(simTime) / float64(sim.Microsecond)},
			Perf: map[string]float64{
				"serial_ms":   serialMed * 1e3,
				"parallel_ms": parMed * 1e3,
				"speedup":     speedup,
			},
		}, nil
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
