// Package bench is the repository's benchmark harness: the typed
// BENCH_N.json artefact, the name-keyed table of workloads a baseline may
// pin, and the drift gate that compares a fresh run against committed
// baselines.
//
// A baseline file picks its own workloads: Record re-runs exactly the
// workloads a file already pins and rewrites it, and Check runs the union
// of the workloads its baselines pin, once each, and compares every file.
// Comparison follows one contract:
//
//   - deterministic Sim metrics are enforced: drift beyond simTolerance, a
//     metric missing on either side or a pinned workload that was not
//     produced FAILS (the model changed; re-record deliberately),
//   - measured Perf metrics and total wall time only WARN, and only when
//     the baseline was recorded on the current host (same Host record) —
//     but a workload that errors, deadlocks or panics still fails the run.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// File is the typed BENCH_N.json artefact.
type File struct {
	Schema int `json:"schema"`
	// Host records the machine context the artefact was written on. A
	// baseline without one counts as recorded elsewhere.
	Host Host `json:"host"`
	// Suites records suite-level wall-clock measurements (e.g. the full
	// `go test -bench` and experiments-test runs before and after a perf
	// change). Record preserves this section; the numbers are filled in by
	// whoever measures them.
	Suites    []Suite    `json:"suites,omitempty"`
	Workloads []Workload `json:"workloads"`
}

// Host identifies the machine and toolchain an artefact's measured metrics
// were taken on. Sim metrics are host-independent by construction; Perf and
// wall-time numbers are only comparable between equal Hosts.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// currentHost describes the running process's machine and toolchain.
func currentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Suite is one recorded before/after wall-time comparison.
type Suite struct {
	Name        string  `json:"name"`
	BaselineSec float64 `json:"baseline_sec"`
	CurrentSec  float64 `json:"current_sec"`
	Speedup     float64 `json:"speedup"`
}

// Workload is one benchmark workload: its wall-clock cost on the machine
// that wrote the file plus its deterministic simulation metrics and/or its
// measured (hardware-dependent) performance metrics.
type Workload struct {
	Name    string             `json:"name"`
	WallSec float64            `json:"wall_sec"`
	Sim     map[string]float64 `json:"sim,omitempty"`
	// Perf holds measured metrics (msgs/s, MiB/s, latencies). Unlike Sim
	// they vary with the machine and run, so the gate only warns on drift.
	Perf map[string]float64 `json:"perf,omitempty"`
}

// Func runs one workload and returns its metrics; the caller fills in the
// name and wall time.
type Func func() (Workload, error)

// schema is the artefact version Record writes (3: host record added).
const schema = 3

// simTolerance is the relative simulation-result drift that fails a check.
const simTolerance = 0.20

// perfWarnTolerance is the relative measured-performance drift (in either
// direction) that triggers a warning; measured metrics never fail a check.
const perfWarnTolerance = 0.5

// wallWarnFactor is the total wall-time growth that triggers the warning.
const wallWarnFactor = 1.5

// readFile parses a BENCH_N.json artefact.
func readFile(path string) (File, error) {
	var f File
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// writeFile writes f as indented JSON.
func writeFile(path string, f File) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Record re-runs exactly the workloads the file at path pins and rewrites
// it with the fresh results and the current host, keeping its suites.
func Record(w io.Writer, table map[string]Func, path string) error {
	f, err := readFile(path)
	if err != nil {
		return err
	}
	ran, err := run(w, table, pinned(f))
	if err != nil {
		return err
	}
	f.Schema, f.Host, f.Workloads = schema, currentHost(), pick(ran, f)
	if err := writeFile(path, f); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d workloads)\n", path, len(f.Workloads))
	return nil
}

// Check runs the union of the workloads the baselines at paths pin, once
// each, and compares every baseline against its own workloads. A pinned
// name missing from table fails before anything runs.
func Check(w io.Writer, table map[string]Func, paths ...string) error {
	bases := make([]File, len(paths))
	var names []string
	seen := make(map[string]bool)
	for i, p := range paths {
		f, err := readFile(p)
		if err != nil {
			return err
		}
		bases[i] = f
		for _, n := range pinned(f) {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	ran, err := run(w, table, names)
	if err != nil {
		return err
	}
	host := currentHost()
	failed := 0
	for i, base := range bases {
		cur := File{Schema: schema, Host: host, Workloads: pick(ran, base)}
		if err := Compare(w, base, cur); err != nil {
			fmt.Fprintf(w, "%s: %v\n", paths[i], err)
			failed++
			continue
		}
		fmt.Fprintf(w, "%s: %d workloads match within %.0f%%\n",
			paths[i], len(cur.Workloads), simTolerance*100)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d baselines drifted", failed, len(bases))
	}
	return nil
}

// pinned lists the workload names f pins, in file order.
func pinned(f File) []string {
	names := make([]string, len(f.Workloads))
	for i, wl := range f.Workloads {
		names[i] = wl.Name
	}
	return names
}

// pick selects from ran the workloads f pins, in f's order.
func pick(ran map[string]Workload, f File) []Workload {
	out := make([]Workload, 0, len(f.Workloads))
	for _, b := range f.Workloads {
		if wl, ok := ran[b.Name]; ok {
			out = append(out, wl)
		}
	}
	return out
}

// run executes each named workload once from table, in order. Every name
// is resolved before the first workload starts.
func run(w io.Writer, table map[string]Func, names []string) (map[string]Workload, error) {
	var unknown []string
	for _, n := range names {
		if table[n] == nil {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown workloads %q (known: %q)", unknown, sortedKeys(table))
	}
	out := make(map[string]Workload, len(names))
	for _, n := range names {
		start := time.Now()
		wl, err := table[n]()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		wl.Name, wl.WallSec = n, time.Since(start).Seconds()
		fmt.Fprintf(w, "ran %-32s %8.2fs\n", n, wl.WallSec)
		out[n] = wl
	}
	return out, nil
}

// Compare checks cur against the baseline base, writing notes, warnings
// and drift lines to w. It fails on Sim drift beyond simTolerance (a zero
// baseline demands zero), on a Sim metric present on one side only and on
// a workload present on one side only. Perf drift and wall-time growth
// only warn, and only when base and cur share a Host record.
func Compare(w io.Writer, base, cur File) error {
	likeForLike := base.Host == cur.Host
	if !likeForLike {
		fmt.Fprintf(w,
			"note: baseline host %+v differs from current %+v; skipping measured-metric and wall-time comparisons\n",
			base.Host, cur.Host)
	}
	baseWl := make(map[string]Workload, len(base.Workloads))
	for _, wl := range base.Workloads {
		baseWl[wl.Name] = wl
	}
	var drift []string
	var baseWall, curWall float64
	for _, wl := range cur.Workloads {
		curWall += wl.WallSec
		b, ok := baseWl[wl.Name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: not in baseline (re-record it)", wl.Name))
			continue
		}
		baseWall += b.WallSec
		delete(baseWl, wl.Name)
		if likeForLike {
			for _, name := range sortedKeys(wl.Perf) {
				got, want := wl.Perf[name], b.Perf[name]
				if want > 0 && !within(got, want, perfWarnTolerance) {
					fmt.Fprintf(w, "WARNING: %s %s: %.3g, baseline %.3g (measured metric, informational only)\n",
						wl.Name, name, got, want)
				}
			}
		}
		for _, name := range sortedKeys(wl.Sim) {
			got := wl.Sim[name]
			want, ok := b.Sim[name]
			if !ok {
				drift = append(drift, fmt.Sprintf("%s %s: metric not in baseline", wl.Name, name))
				continue
			}
			if !within(got, want, simTolerance) {
				drift = append(drift, fmt.Sprintf("%s %s: %g, baseline %g (%.1f%% off)",
					wl.Name, name, got, want, 100*relDelta(got, want)))
			}
		}
		// A pinned result must not silently vanish from the check.
		for _, name := range sortedKeys(b.Sim) {
			if _, ok := wl.Sim[name]; !ok {
				drift = append(drift, fmt.Sprintf("%s %s: metric in baseline but not produced", wl.Name, name))
			}
		}
	}
	for name := range baseWl {
		drift = append(drift, fmt.Sprintf("%s: in baseline but not produced", name))
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		for _, d := range drift {
			fmt.Fprintln(w, "DRIFT:", d)
		}
		return fmt.Errorf("%d simulation results drifted more than %.0f%% from the baseline",
			len(drift), simTolerance*100)
	}
	if likeForLike && baseWall > 0 && curWall > wallWarnFactor*baseWall {
		fmt.Fprintf(w, "WARNING: wall time %.2fs vs baseline %.2fs (>%.1fx slower; timings are informational only)\n",
			curWall, baseWall, wallWarnFactor)
	}
	return nil
}

// relDelta is |got-want| relative to |want|; against a zero baseline any
// nonzero value is a full (1.0) deviation.
func relDelta(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	if want == 0 {
		if d == 0 {
			return 0
		}
		return 1
	}
	return d / want
}

func within(got, want, tol float64) bool { return relDelta(got, want) <= tol }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
