// Command simbench runs the repository's benchmark workloads outside
// `go test` and keeps the committed BENCH_N.json baselines honest. Each
// baseline file picks its own workloads from the internal/bench table: the
// Figure 3-7 sweeps, the §3.5 threshold study and the multipair contention
// sweep (BENCH_3), the same plus the real-runtime fast-path rows (BENCH_5),
// the lane-phases workloads (BENCH_6) and knemd's load-generation selftest
// and crash-recovery workload (BENCH_9).
//
// Usage:
//
//	simbench -out BENCH_5.json                  # re-record the workloads BENCH_5 pins
//	simbench -check BENCH_3.json,BENCH_9.json   # run their union once, compare each
//
// -check fails on simulation-result drift beyond the tolerance (the model
// changed; re-record deliberately with -out) and on any workload that
// errors. Measured performance and wall time only warn, and only when the
// baseline was recorded on this host; see internal/bench for the contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"knemesis/internal/bench"
	"knemesis/internal/profiling"
)

func main() {
	var (
		out        = flag.String("out", "", "re-run the workloads this baseline pins and rewrite it")
		check      = flag.String("check", "", "comma-separated baselines: run the workloads they pin and compare")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fatal(fmt.Errorf("exactly one of -out or -check is required"))
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		err = bench.Record(os.Stderr, bench.Table, *out)
	} else {
		err = bench.Check(os.Stderr, bench.Table, strings.Split(*check, ",")...)
	}
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "simbench: profile:", perr)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}
