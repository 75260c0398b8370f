package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/store"
)

var update = flag.Bool("update", false, "rewrite testdata/sim-paper.golden.json")

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got != 99 {
		t.Errorf("p99 = %g, want 99", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %g, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n, beyond int
		trusted   bool
	}{
		{0, 0, false},
		{100, 1, false},
		{999, 9, false},
		{1000, 10, true},
		{2500, 25, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		if s.Beyond99 != c.beyond || s.tailTrusted() != c.trusted {
			t.Errorf("n=%d: beyond=%d trusted=%v, want %d %v", c.n, s.Beyond99, s.tailTrusted(), c.beyond, c.trusted)
		}
		// The samples beyond really are the ones above the p99.
		above := 0
		for _, x := range xs {
			if x > s.P99 {
				above++
			}
		}
		if above != s.Beyond99 {
			t.Errorf("n=%d: %d samples above p99, summary says %d", c.n, above, s.Beyond99)
		}
	}
}

// stubClient answers submissions from a fixed script of outcomes.
type stubClient struct {
	script []string
	n      int
}

func (s *stubClient) submit(_ *Lane, _ uint64, spec api.Spec, _ []byte) (submitted, error) {
	out := s.script[s.n%len(s.script)]
	s.n++
	id := fmt.Sprintf("job-%d-%s", s.n, out)
	switch out {
	case "shed":
		return submitted{}, fmt.Errorf("%w: HTTP 429", errShed)
	case "refused":
		return submitted{}, errors.New("submit: HTTP 400")
	case "hit":
		return submitted{ID: id, Cached: true, Done: true}, nil
	}
	return submitted{ID: id}, nil
}

func (s *stubClient) await(_ *Lane, _ uint64, id string) (store.Record, error) {
	switch {
	case strings.HasSuffix(id, "-failed"):
		return store.Record{ID: id, State: store.Failed, Error: "boom"}, nil
	case strings.HasSuffix(id, "-lost"):
		return store.Record{}, errors.New("connection reset")
	}
	return store.Record{ID: id, State: store.Done}, nil
}

func testInputs() *knemdInputs {
	in := &knemdInputs{warm: knemdWarmSpecs()}
	for _, s := range in.warm {
		b, _ := json.Marshal(s)
		in.warmBody = append(in.warmBody, b)
	}
	return in
}

func TestClosedLoopAccountingUnderRefusals(t *testing.T) {
	cl := &stubClient{script: []string{"shed", "refused", "hit", "miss", "failed", "lost", "shed"}}
	lr := closedLoop(cl, testInputs(), rand.New(rand.NewSource(1)), after(50*time.Millisecond), nil, 0)
	if lr.Attempted == 0 {
		t.Fatal("no submissions attempted")
	}
	if lr.Attempted != lr.Done+lr.Failed+lr.Shed {
		t.Fatalf("attempted %d != done %d + failed %d + shed %d", lr.Attempted, lr.Done, lr.Failed, lr.Shed)
	}
	if lr.Shed == 0 || lr.Failed == 0 || lr.Done == 0 {
		t.Fatalf("script outcomes not all counted: %+v", lr)
	}
	if int64(len(lr.Samples)) != lr.Done {
		t.Fatalf("%d latency samples for %d done jobs", len(lr.Samples), lr.Done)
	}
}

func TestClosedLoopCountsAllShed(t *testing.T) {
	cl := &stubClient{script: []string{"shed"}}
	lr := closedLoop(cl, testInputs(), rand.New(rand.NewSource(1)), after(20*time.Millisecond), nil, 0)
	if lr.Shed != lr.Attempted || lr.Done != 0 || lr.Failed != 0 {
		t.Fatalf("all-shed stub: %+v", lr)
	}
}

func TestHTTPClientMapsSheddingStatus(t *testing.T) {
	statuses := []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusBadRequest}
	for _, code := range statuses {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no", code)
		}))
		hc := newHTTPClient(srv.URL)
		_, err := hc.submit(nil, 0, api.Spec{}, []byte("{}"))
		hc.close()
		srv.Close()
		if got, want := errors.Is(err, errShed), code != http.StatusBadRequest; got != want || err == nil {
			t.Errorf("HTTP %d: err=%v, shed=%v want %v", code, err, got, want)
		}
	}
}

// cacheKey is a spec's knemd result-cache key.
func cacheKey(t *testing.T, s api.Spec) string {
	t.Helper()
	c, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := c.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMissSpecsNeverHit checks that every miss spec of a run has a cache
// key of its own: no earlier miss and no warm spec shares it.
func TestMissSpecsNeverHit(t *testing.T) {
	in := testInputs()
	in.missOff = 12345
	keys := map[string]bool{}
	for _, w := range in.warm {
		keys[cacheKey(t, w)] = true
	}
	for i := 0; i < missSpan; i++ {
		size := in.nextMiss()
		key := cacheKey(t, missSpec(size))
		if keys[key] || size < 1<<10 || size >= 1<<10+missSpan {
			t.Fatalf("miss %d: size %d shares a cache key or is out of range", i, size)
		}
		keys[key] = true
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := NewTracer()
	l := tr.Lane()
	l.Begin("bench.job", 1)
	l.Begin("imb.run", 1)
	time.Sleep(2 * time.Millisecond)
	l.End()
	l.End()
	self := tr.SelfNS()
	if self["imb"] < int64(2*time.Millisecond) {
		t.Errorf("imb self %d ns, want >= 2ms", self["imb"])
	}
	if self["bench"] < 0 || self["bench"] > int64(time.Millisecond) {
		t.Errorf("bench self %d ns: the child span was not subtracted", self["bench"])
	}
	if tr.Count() != 2 || len(tr.Durations("imb.run")) != 1 {
		t.Errorf("count %d, imb.run samples %d", tr.Count(), len(tr.Durations("imb.run")))
	}
	var nilLane *Lane
	nilLane.Begin("x.y", 1) // untraced runs: no-ops
	nilLane.End()
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range b.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n perfbench      %v", got, want)
	}
	got, want = nil, nil
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n perfbench      %v", got, want)
	}
	got, want = nil, nil
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, perfbench %v", got, want)
	}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the printed result names every metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2",
					"--trace", trace, "--work", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("result %+v\n%s", r, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or unit %q", d.Name, m.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "sim-paper") {
		t.Errorf("error does not list the workloads: %s", errb.String())
	}
}

// TestSimPaperGolden checks every sim-paper job against the golden file;
// -update rewrites the file from the current simulator.
func TestSimPaperGolden(t *testing.T) {
	got := map[string]json.RawMessage{}
	for _, sj := range simPaperJobs() {
		spec, err := sj.Spec()
		if err != nil {
			t.Fatal(err)
		}
		j, err := comm.NewJob("sim", spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sj.runImb(j)
		if err != nil {
			t.Fatalf("%s: %v", sj.Name, err)
		}
		got[sj.Name], _ = json.Marshal(res)
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/sim-paper.golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := simGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(got) {
		t.Errorf("golden has %d jobs, the job list %d", len(golden), len(got))
	}
	for name, g := range got {
		if !bytes.Equal(g, golden[name]) {
			t.Errorf("%s:\n got  %s\n want %s", name, g, golden[name])
		}
	}
}
