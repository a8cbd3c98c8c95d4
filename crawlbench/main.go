// Command crawlbench is the repository's end-to-end benchmark. It runs one
// workload of the crawl system for a fixed wall time — the simulator (the
// paper's strategy matrix, then an incremental recrawl under churn) or a
// journaled live crawl over loopback HTTP — checks every iteration's
// output against ground truth, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last line
// of standard output:
//
//	python3 crawlbench/run.py --workload live-journal --seed 1 --seconds 45 --trace 0
//
// run.py builds this package into .bench_build and keeps every file the
// run writes inside the checkout. --workload all runs every workload in
// one process. README.md maps each per-layer metric to the end-to-end
// metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Env is what a workload's set-up receives.
type Env struct {
	Seed    uint64
	Scratch string // directory for the workload's temp dirs
	Lanes   int    // crawl workers: one per CPU
	Sizes   Sizes
}

// Sizes scales the workloads' web spaces.
type Sizes struct {
	SimPages        int     // sim strategy-matrix space
	RecrawlPages    int     // sim incremental-recrawl space
	RecrawlHorizons float64 // recrawl horizon, in discovery lengths
	LivePages       int     // live-journal space
}

var defaultSizes = Sizes{SimPages: 300000, RecrawlPages: 40000, RecrawlHorizons: 4, LivePages: 6000}

// Instance is a set-up workload, ready to iterate.
type Instance interface {
	// Iterate runs one unit of work, opening the meter's window around
	// the timed part only, then checks the output. tr is nil in untraced
	// iterations. attempted counts page fetches, failed the transport
	// errors among them; err reports a failed run or check.
	Iterate(m *Meter, tr *Tracer) (w window, attempted, failed int, err error)
	// Layers fills lt with the workload's own per-layer figures after the
	// traced iterations, running its side passes.
	Layers(tr *Tracer, lt *layerTotals) error
	// GenerateTime is the web-space generation share of set-up.
	GenerateTime() time.Duration
	Close() error
}

// Workload is one benchmark input.
type Workload struct {
	Name  string
	Setup func(env *Env) (Instance, error)
}

var workloads = []Workload{
	{"sim", setupSim},
	{"live-journal", setupLive},
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()

	var run []Workload
	for _, w := range workloads {
		if *name == w.Name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fatalf("unknown --workload %q (want one of %s, or all)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	res := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, w := range run {
		r, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
		if err != nil {
			fatalf("%s: %v", w.Name, err)
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(run) > 1 {
				k = w.Name + "." + k
			}
			res.Metrics[k] = v
		}
		if len(run) > 1 {
			printResult("# "+w.Name+" ", r)
		}
	}
	printResult("", res)
	if !res.Correct {
		os.Exit(1)
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func printResult(prefix string, r Result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(prefix + string(b))
}

// runWorkload sets w up setupReps times, then measures it for d: untraced
// for the end-to-end metrics, or an untraced reference phase followed by
// a traced phase for the per-layer metrics.
func runWorkload(w Workload, seed uint64, d time.Duration, traced bool, out string) (Result, error) {
	runID := fmt.Sprintf("%s-seed%d", w.Name, seed)
	scratch := filepath.Join(out, "tmp", fmt.Sprintf("%s-%d", runID, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(scratch)
	env := &Env{Seed: seed, Scratch: scratch, Lanes: runtime.NumCPU(), Sizes: defaultSizes}
	printMeta(w.Name, env)

	res := Result{Correct: true, Metrics: map[string]Metric{}}
	tally := func(att, failed int, err error) {
		res.Attempted += att
		res.Failed += failed
		if err != nil {
			res.Correct = false
			res.Failed++
			fmt.Printf("# FAIL %s: %v\n", w.Name, err)
		}
		res.Attempted++ // the run itself
	}

	var inst Instance
	var setups, gens []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := w.Setup(env)
		if err != nil {
			return Result{}, fmt.Errorf("set-up: %w", err)
		}
		// The warm-up iteration belongs to set-up: it fills connection
		// pools and the heap before anything is timed.
		_, att, failed, err := next.Iterate(&Meter{}, nil)
		tally(att, failed, err)
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, next.GenerateTime().Seconds())
		if inst != nil {
			if err := inst.Close(); err != nil {
				return Result{}, err
			}
		}
		inst = next
	}
	defer inst.Close()

	phase := func(d time.Duration, tr *Tracer, minIters int) []window {
		var ws []window
		end := time.Now().Add(d)
		for len(ws) < minIters || time.Now().Before(end) {
			var m Meter
			win, att, failed, err := inst.Iterate(&m, tr)
			tally(att, failed, err)
			ws = append(ws, win)
		}
		return ws
	}

	if !traced {
		ws := phase(d, nil, 3)
		for k, v := range endToEnd(ws, res.Attempted, res.Failed) {
			res.Metrics[k] = Metric{v, endToEndUnits[k]}
		}
		res.Metrics["setup_s"] = Metric{median(setups), "s"}
		printWindows(w.Name, ws)
		return res, nil
	}

	ref := endToEnd(phase(d/4, nil, 1), 0, 0)["pages_per_s"]
	tr := NewTracer(runID)
	ws := phase(d, tr, 2)
	lt := &layerTotals{iters: len(ws), generateS: median(gens)}
	for _, win := range ws {
		lt.pages += int64(win.pages)
	}
	lt.tracedRate = endToEnd(ws, 0, 0)["pages_per_s"]
	lt.untracedRate = ref
	if err := inst.Layers(tr, lt); err != nil {
		tally(0, 0, fmt.Errorf("side pass: %w", err))
	}
	for k, v := range layerMetrics(tr, lt) {
		res.Metrics[k] = Metric{v, layerUnits[k]}
	}
	dump := filepath.Join(out, "traces", runID+".jsonl")
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return Result{}, err
	}
	if err := tr.WriteJSONL(dump); err != nil {
		return Result{}, err
	}
	fmt.Printf("# spans: %d recorded, first %d per name kept in %s\n", tr.SpanCount(), maxSpansPerName, dump)
	printWindows(w.Name+" traced", ws)
	return res, nil
}

var endToEndUnits = map[string]string{
	"pages_per_s":       "1/s",
	"setup_s":           "s",
	"cpu_ms_per_kpage":  "ms",
	"alloc_kb_per_page": "KiB",
	"peak_heap_mb":      "MiB",
	"ok_frac":           "frac",
}

func printMeta(name string, env *Env) {
	meta := map[string]any{
		"workload":   name,
		"seed":       env.Seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"network":    "loopback",
		"lanes":      env.Lanes,
	}
	b, _ := json.Marshal(meta) // a map of plain values always encodes
	fmt.Println("# meta " + string(b))
}

func printWindows(name string, ws []window) {
	rows := make([]string, len(ws))
	for i, w := range ws {
		rows[i] = fmt.Sprintf("%d pages %.3fs %.1fMiB", w.pages, w.wall.Seconds(), float64(w.peak)/(1<<20))
	}
	fmt.Printf("# %s: %d iterations: %s\n", name, len(ws), strings.Join(rows, ", "))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crawlbench: "+format+"\n", args...)
	os.Exit(2)
}
