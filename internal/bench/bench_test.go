package bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	here := currentHost()
	foreign := here
	foreign.NumCPU++
	wl := func(name string, wall float64, sim, perf map[string]float64) Workload {
		return Workload{Name: name, WallSec: wall, Sim: sim, Perf: perf}
	}
	m := func(k string, v float64) map[string]float64 { return map[string]float64{k: v} }
	for _, tc := range []struct {
		name     string
		base     File
		cur      []Workload
		wantErr  bool
		wantWarn bool
	}{
		{
			name: "identical",
			base: File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 100), m("p", 10))}},
			cur:  []Workload{wl("a", 1, m("x", 100), m("p", 10))},
		},
		{
			name: "sim drift within tolerance",
			base: File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 100), nil)}},
			cur:  []Workload{wl("a", 1, m("x", 119), nil)},
		},
		{
			name:    "sim drift above tolerance",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 100), nil)}},
			cur:     []Workload{wl("a", 1, m("x", 121), nil)},
			wantErr: true,
		},
		{
			name:    "sim drift below tolerance",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 100), nil)}},
			cur:     []Workload{wl("a", 1, m("x", 79), nil)},
			wantErr: true,
		},
		{
			name:    "sim metric missing from run",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, map[string]float64{"x": 1, "y": 2}, nil)}},
			cur:     []Workload{wl("a", 1, m("x", 1), nil)},
			wantErr: true,
		},
		{
			name:    "sim metric missing from baseline",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 1), nil)}},
			cur:     []Workload{wl("a", 1, map[string]float64{"x": 1, "y": 2}, nil)},
			wantErr: true,
		},
		{
			name:    "pinned workload not produced",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 1), nil), wl("b", 1, m("x", 1), nil)}},
			cur:     []Workload{wl("a", 1, m("x", 1), nil)},
			wantErr: true,
		},
		{
			name:    "workload not in baseline",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 1), nil)}},
			cur:     []Workload{wl("a", 1, m("x", 1), nil), wl("b", 1, m("x", 1), nil)},
			wantErr: true,
		},
		{
			name: "zero baseline met by zero",
			base: File{Host: here, Workloads: []Workload{wl("a", 1, m("errors", 0), nil)}},
			cur:  []Workload{wl("a", 1, m("errors", 0), nil)},
		},
		{
			name:    "zero baseline demands zero",
			base:    File{Host: here, Workloads: []Workload{wl("a", 1, m("errors", 0), nil)}},
			cur:     []Workload{wl("a", 1, m("errors", 1e-9), nil)},
			wantErr: true,
		},
		{
			name:     "perf drift warns on the same host",
			base:     File{Host: here, Workloads: []Workload{wl("a", 1, nil, m("p", 100))}},
			cur:      []Workload{wl("a", 1, nil, m("p", 40))},
			wantWarn: true,
		},
		{
			name:     "wall growth warns on the same host",
			base:     File{Host: here, Workloads: []Workload{wl("a", 1, m("x", 1), nil)}},
			cur:      []Workload{wl("a", 2, m("x", 1), nil)},
			wantWarn: true,
		},
		{
			name: "foreign host skips perf and wall warnings",
			base: File{Host: foreign, Workloads: []Workload{wl("a", 1, m("x", 1), m("p", 100))}},
			cur:  []Workload{wl("a", 2, m("x", 1), m("p", 40))},
		},
		{
			name: "missing host record counts as foreign",
			base: File{Workloads: []Workload{wl("a", 1, m("x", 1), m("p", 100))}},
			cur:  []Workload{wl("a", 2, m("x", 1), m("p", 40))},
		},
		{
			name:    "foreign host still enforces sim",
			base:    File{Host: foreign, Workloads: []Workload{wl("a", 1, m("x", 100), nil)}},
			cur:     []Workload{wl("a", 1, m("x", 150), nil)},
			wantErr: true,
		},
		{
			name:    "foreign host still enforces pinned workloads",
			base:    File{Host: foreign, Workloads: []Workload{wl("a", 1, m("x", 1), nil), wl("b", 1, nil, nil)}},
			cur:     []Workload{wl("a", 1, m("x", 1), nil)},
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := Compare(&out, tc.base, File{Host: here, Workloads: tc.cur})
			if (err != nil) != tc.wantErr {
				t.Errorf("Compare error = %v, want error %v\n%s", err, tc.wantErr, out.String())
			}
			if warned := strings.Contains(out.String(), "WARNING"); warned != tc.wantWarn {
				t.Errorf("warned = %v, want %v\n%s", warned, tc.wantWarn, out.String())
			}
		})
	}
}

// countingTable returns a workload table whose funcs count their runs.
func countingTable(runs map[string]int, names ...string) map[string]Func {
	table := make(map[string]Func, len(names))
	for _, n := range names {
		n := n
		table[n] = func() (Workload, error) {
			runs[n]++
			return Workload{Sim: map[string]float64{"v": 1}}, nil
		}
	}
	return table
}

// writeBaseline writes a baseline pinning names (each with Sim v=1) and
// returns its path.
func writeBaseline(t *testing.T, file string, names ...string) string {
	t.Helper()
	f := File{Schema: schema, Host: currentHost()}
	for _, n := range names {
		f.Workloads = append(f.Workloads, Workload{Name: n, Sim: map[string]float64{"v": 1}})
	}
	path := filepath.Join(t.TempDir(), file)
	if err := writeFile(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckRunsSharedWorkloadOnce(t *testing.T) {
	runs := make(map[string]int)
	table := countingTable(runs, "a", "b", "c", "unpinned")
	p1 := writeBaseline(t, "one.json", "a", "b")
	p2 := writeBaseline(t, "two.json", "b", "c")
	var out bytes.Buffer
	if err := Check(&out, table, p1, p2); err != nil {
		t.Fatalf("Check: %v\n%s", err, out.String())
	}
	want := map[string]int{"a": 1, "b": 1, "c": 1}
	if len(runs) != len(want) || runs["a"] != 1 || runs["b"] != 1 || runs["c"] != 1 {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
}

func TestCheckUnknownWorkloadFails(t *testing.T) {
	runs := make(map[string]int)
	table := countingTable(runs, "a")
	p := writeBaseline(t, "one.json", "a", "nope")
	var out bytes.Buffer
	err := Check(&out, table, p)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Check error = %v, want one naming the unknown workload", err)
	}
	if len(runs) != 0 {
		t.Fatalf("workloads ran before the unknown name was rejected: %v", runs)
	}
}

func TestCheckFailsAnyDriftingBaseline(t *testing.T) {
	runs := make(map[string]int)
	table := countingTable(runs, "a")
	good := writeBaseline(t, "good.json", "a")
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, File{Schema: schema, Workloads: []Workload{{Name: "a", Sim: map[string]float64{"v": 2}}}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Check(&out, table, good, bad); err == nil {
		t.Fatalf("Check passed with a drifting baseline\n%s", out.String())
	}
}

func TestRecordKeepsPinnedWorkloadsAndSuites(t *testing.T) {
	runs := make(map[string]int)
	table := countingTable(runs, "a", "b", "c")
	path := filepath.Join(t.TempDir(), "rec.json")
	suites := []Suite{{Name: "s", BaselineSec: 2, CurrentSec: 1, Speedup: 2}}
	if err := writeFile(path, File{Schema: 1, Suites: suites, Workloads: []Workload{{Name: "c"}, {Name: "a"}}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Record(&out, table, path); err != nil {
		t.Fatal(err)
	}
	got, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != 2 || got.Workloads[0].Name != "c" || got.Workloads[1].Name != "a" || runs["b"] != 0 {
		t.Fatalf("recorded workloads %+v (runs %v), want exactly c, a in file order", got.Workloads, runs)
	}
	if got.Schema != schema || got.Host != currentHost() || len(got.Suites) != 1 || got.Suites[0] != suites[0] {
		t.Fatalf("recorded header = schema %d host %+v suites %+v", got.Schema, got.Host, got.Suites)
	}
	if err := Check(&out, table, path); err != nil {
		t.Fatalf("fresh recording does not check clean: %v\n%s", err, out.String())
	}
}

// TestTableRunsEveryBaseline pins that every workload the committed
// baselines name resolves in Table.
func TestTableRunsEveryBaseline(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines found: %v", err)
	}
	for _, p := range paths {
		f, err := readFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range pinned(f) {
			if Table[n] == nil {
				t.Errorf("%s pins %q, which Table does not know", p, n)
			}
		}
	}
}
