package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"langcrawl/internal/webgraph"
)

// smallSizes keeps every workload's iteration well under a second.
var smallSizes = Sizes{SimPages: 3000, RecrawlPages: 8000, RecrawlHorizons: 2, LivePages: 300}

func setup(t *testing.T, w Workload, seed uint64) Instance {
	t.Helper()
	inst, err := w.Setup(&Env{Seed: seed, Scratch: t.TempDir(), Lanes: 2, Sizes: smallSizes})
	if err != nil {
		t.Fatalf("%s set-up: %v", w.Name, err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

// TestWorkloadsPassChecks runs every workload untraced and traced on two
// seeds; every iteration must pass its correctness check without a
// transport error.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			inst := setup(t, w, seed)
			tr := NewTracer(w.Name)
			for _, traced := range []*Tracer{nil, tr, nil} {
				win, att, failed, err := inst.Iterate(&Meter{}, traced)
				if err != nil || failed != 0 {
					t.Fatalf("%s seed %d: failed=%d err=%v", w.Name, seed, failed, err)
				}
				if win.pages == 0 || att == 0 {
					t.Fatalf("%s seed %d: %d pages, %d operations", w.Name, seed, win.pages, att)
				}
			}
			lt := &layerTotals{iters: 1}
			if err := inst.Layers(tr, lt); err != nil {
				t.Fatalf("%s: side pass: %v", w.Name, err)
			}
			if len(layerMetrics(tr, lt)) != len(layerUnits) {
				t.Fatalf("%s: per-layer metrics incomplete", w.Name)
			}
		}
	}
}

// TestCorruptedExpectationFails shows each workload's check reports a
// failure when its ground truth is wrong.
func TestCorruptedExpectationFails(t *testing.T) {
	cases := []struct {
		workload, what string
		corrupt        func(Instance)
	}{
		{"sim", "reachable set", func(i Instance) { i.(*simEngines).matrix.want.visited++ }},
		{"sim", "recrawl horizon", func(i Instance) { i.(*simEngines).inc.horizon *= 2 }},
		{"live-journal", "crawled set", func(i Instance) { dropOne(i.(*liveJournal).want) }},
	}
	byName := map[string]Workload{}
	for _, w := range workloads {
		byName[w.Name] = w
	}
	for _, c := range cases {
		inst := setup(t, byName[c.workload], 3)
		if _, _, _, err := inst.Iterate(&Meter{}, nil); err != nil {
			t.Fatalf("%s: clean iteration failed: %v", c.workload, err)
		}
		c.corrupt(inst)
		if _, _, _, err := inst.Iterate(&Meter{}, nil); err == nil {
			t.Errorf("%s: corrupted %s passed the check", c.workload, c.what)
		}
	}
}

// dropOne removes one page from an expected crawled set.
func dropOne(want map[webgraph.PageID]bool) {
	for id := range want {
		delete(want, id)
		return
	}
}

// TestDigestMismatchFails: a visit order that differs from the first
// run's is a failure.
func TestDigestMismatchFails(t *testing.T) {
	d := digests{}
	if err := d.check("bfs", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.check("bfs", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.check("bfs", 2); err == nil {
		t.Fatal("changed digest accepted")
	}
}

// TestSelfTime: one lane's self time is the root span minus its
// children; with two lanes it is twice the wall time minus the children
// and the idle time.
func TestSelfTime(t *testing.T) {
	tr := NewTracer("test")
	r := tr.Begin("sim.Run", 1)
	t0 := time.Now()
	time.Sleep(5 * time.Millisecond)
	tr.End("core.classify", "", t0, 0, false, true, false)
	tr.Record("crawler.body_read", "", time.Now(), 3*time.Millisecond, 10, false, true, false)
	tr.Record("webserve.serve", "", time.Now(), time.Hour, 10, false, false, false)
	self := tr.EndRoot(r, 0)
	wall := r.End - r.Start
	child := tr.Stat("core.classify").ns + 3*time.Millisecond.Nanoseconds()
	if self != wall-child {
		t.Fatalf("self %d, want wall %d - children %d", self, wall, child)
	}
	r2 := tr.Begin("crawler.Run", 2)
	self2 := tr.EndRoot(r2, time.Microsecond)
	if want := 2*(r2.End-r2.Start) - time.Microsecond.Nanoseconds(); self2 != want {
		t.Fatalf("two-lane self %d, want %d", self2, want)
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{5e6, 1e6, 3e6, 2e6, 4e6}
	if got := percentileMs(s, 0.5); got != 3 {
		t.Fatalf("p50 %v", got)
	}
	if got := percentileMs(s, 0.99); got != 5 {
		t.Fatalf("p99 %v", got)
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 %v", got)
	}
}

// TestBenchmarkJSON: the metric lists in BENCHMARK.json are the ones the
// runner prints, with the same units, and its workloads are the runner's.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if len(e2e) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, runner prints %d", len(e2e), len(endToEndUnits))
	}
	for k, u := range endToEndUnits {
		if e2e[k] != u {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, runner %q", k, e2e[k], u)
		}
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(layers) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, runner prints %d", len(layers), len(layerUnits))
	}
	for k, u := range layerUnits {
		if layers[k] != u {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, runner %q", k, layers[k], u)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, runner %v", names, want)
	}
}
