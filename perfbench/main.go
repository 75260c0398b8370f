// Command perfbench is the repository benchmark. It runs one named
// workload against the public functions of the simulator, the goroutine
// runtime or the knemd daemon, checks every output it produces, and prints
// the workload's metrics, the last stdout line being one JSON object:
//
//	go run . --workload sim-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs an untraced reference pass and then a traced pass of
// the full length, and prints the per-layer metrics plus the tracing
// overhead. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// defines each of them in its own terms (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"lat_us_p50", "us"},
	{"lat_us_p99", "us"},
	{"light_us_p50", "us"},
	{"heavy_us_p50", "us"},
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"bench", "comm", "imb", "rt", "http", "api", "serve", "store"}

// perLayer lists the traced run's metrics. Every workload prints all of
// them; a layer the workload does not run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.simulated_us", "us"},
		{"imb.run_ms.pingpong", "ms"},
		{"imb.run_ms.alltoall", "ms"},
		{"imb.run_ms.cluster", "ms"},
		{"hw.l2_accesses", "count"},
		{"hw.l2_miss_ratio", "ratio"},
		{"hw.bus_bytes", "bytes"},
		{"nemesis.net_msgs", "count"},
		{"nemesis.net_byte_hops", "count"},
		{"rt.fastbox_msgs", "count"},
		{"rt.eager_msgs", "count"},
		{"rt.rndv_msgs", "count"},
		{"rt.bytes_moved", "bytes"},
		{"rt.fastbox_share", "ratio"},
		{"rt.send_ns_p50.64B", "ns"},
		{"rt.send_ns_p50.4KiB", "ns"},
		{"rt.recv_ns_p50.64B", "ns"},
		{"rt.recv_ns_p50.4KiB", "ns"},
		{"rt.wait_ms.1MiB.single-copy", "ms"},
		{"rt.wait_ms.1MiB.eager", "ms"},
		{"rt.envelope_leaks", "count"},
		{"api.canonicalize_us_p50", "us"},
		{"serve.submit_us_p50", "us"},
		{"serve.submit_us_p99", "us"},
		{"scheduler.queue_wait_ms_p50", "ms"},
		{"scheduler.queue_wait_ms_p99", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.http_us_p50", "us"},
		{"cache.hit_ratio", "ratio"},
		{"store.append_us_p50", "us"},
		{"store.append_us_p99", "us"},
		{"store.put_artefact_ms_p50", "ms"},
		{"store.wal_bytes_per_job", "bytes"},
		{"serve.replay_ms", "ms"},
		{"trace.spans", "count"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	return defs
}()

// config is one invocation's settings.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Work is the directory for the knemd store and the trace file.
	Work string
}

// report is what a workload run measured.
type report struct {
	// Attempted counts operations; Failed those that failed, were wrong,
	// refused or shed; Wrong those whose output failed a check.
	Attempted, Failed, Wrong int64
	// Failures describes the first failed operations.
	Failures []string
	// E2E holds the end-to-end metrics of the untraced pass; Traced those
	// of the traced pass (trace mode only).
	E2E, Traced map[string]float64
	// Layer holds the per-layer metrics (trace mode only).
	Layer map[string]float64
	// Notes are extra human-readable lines: sample counts, store
	// filesystem, percentile trust.
	Notes []string
}

func newReport() *report {
	return &report{E2E: map[string]float64{}, Traced: map[string]float64{}, Layer: map[string]float64{}}
}

// fail records an operation whose output failed a check.
func (r *report) fail(format string, args ...interface{}) {
	r.Wrong++
	r.refuse(format, args...)
}

// refuse records an operation that failed without a wrong output: an
// error, a refusal or a shed request.
func (r *report) refuse(format string, args ...interface{}) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line.
func (r *report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// noteSummary records the sample count behind a latency distribution and
// whether its p99 has at least minBeyond samples beyond it.
func (r *report) noteSummary(name string, s summary) {
	trust := "ok"
	if !s.tailTrusted() {
		trust = fmt.Sprintf("UNTRUSTED: fewer than %d beyond", minBeyond)
	}
	r.note("samples %s n=%d beyond_p99=%d (%s)", name, s.N, s.Beyond99, trust)
}

// workload is one named benchmark workload; BENCHMARK.json says why each
// exists.
type workload struct {
	Name string
	Run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"sim-paper", runSimPaper},
	{"rt-pingpong", runRTPingPong},
	{"knemd-closed", runKnemdClosed},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, "|"))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for the knemd store and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: *work}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s os=%s/%s work_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(cfg.Work))
	fmt.Fprintf(stdout, "input workload=%s seed=%d seconds=%g trace=%d\n", w.Name, cfg.Seed, cfg.Seconds, *trace)

	rep, err := w.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// mem_mb is the peak resident set unless the workload defines it.
	for _, m := range []map[string]float64{rep.E2E, rep.Traced} {
		if _, ok := m["mem_mb"]; !ok {
			m["mem_mb"] = peakRSSMiB()
		}
	}
	if u := rep.E2E["ops_per_s"]; cfg.Trace && u > 0 {
		rep.Layer["trace.overhead_pct"] = (u - rep.Traced["ops_per_s"]) / u * 100
	}
	printReport(stdout, cfg, rep)
	return 0
}

// printReport prints the human-readable lines and, last, the JSON result.
func printReport(w io.Writer, cfg config, rep *report) {
	for _, n := range rep.Notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "failed_share %g (%d of %d attempted)\n", share, rep.Failed, rep.Attempted)

	defs, values := endToEnd, rep.E2E
	if cfg.Trace {
		for _, d := range endToEnd {
			u, t := rep.E2E[d.Name], rep.Traced[d.Name]
			pct := 0.0
			if u != 0 {
				pct = (t - u) / u * 100
			}
			fmt.Fprintf(w, "trace_overhead %s untraced=%.6g traced=%.6g diff=%.6g %s (%+.1f%%)\n",
				d.Name, u, t, t-u, d.Unit, pct)
		}
		defs, values = perLayer, rep.Layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		fmt.Fprintf(w, "metric %s %s %s\n", d.Name, strconv.FormatFloat(v, 'f', -1, 64), d.Unit)
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Wrong == 0 && rep.Attempted > 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(buf))
}

// peakRSSMiB is the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// deadline is a measurement window.
type deadline time.Time

func after(d time.Duration) deadline { return deadline(time.Now().Add(d)) }

func (d deadline) passed() bool { return !time.Now().Before(time.Time(d)) }

// secs converts a float second count to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceFile is where a traced run writes its spans.
func traceFile(cfg config, workload string) string {
	return filepath.Join(cfg.Work, "traces", fmt.Sprintf("%s-seed%d.json", workload, cfg.Seed))
}

// writeTrace writes the tracer's spans and fills the tracer-derived
// per-layer metrics.
func writeTrace(cfg config, workload string, tr *Tracer, rep *report) {
	self := tr.SelfNS()
	for _, l := range selfLayers {
		rep.Layer["self_ms."+l] = float64(self[l]) / 1e6
	}
	rep.Layer["trace.spans"] = float64(tr.Count())
	path := traceFile(cfg, workload)
	if err := tr.WriteFile(path); err != nil {
		rep.note("trace file not written: %v", err)
		return
	}
	rep.note("trace file %s (%d spans recorded, a bounded sample kept)", path, tr.Count())
}
