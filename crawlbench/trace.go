package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerName bounds the raw spans kept in memory per span name. The
// aggregates below count every span; the kept ones are the first of each
// name, written out when the run ends for inspection.
const maxSpansPerName = 512

// Span is one timed call across a layer boundary, recorded by the
// benchmark's wrappers around the program's injectable interfaces.
type Span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`  // page URL, or the run id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg totals one span name over the traced phase.
type agg struct {
	count int64
	ns    int64
	bytes int64
	flags int64 // failed spans, or counts whose flag was set
	// samples keeps per-span durations for percentiles, only for the
	// names that report them (fetch wait).
	samples []int64
}

// root is a run-level span (one engine call). Lanes is how many
// goroutines issue its child spans at once: self time is lanes × wall
// minus the time its lanes spent inside child spans, which for one lane
// is exactly the span minus the part its children cover.
type root struct {
	Span
	lanes int
	child atomic.Int64 // ns of lane-side child spans ended under this root
}

// rootAgg totals one root span name.
type rootAgg struct {
	count, wall, self int64
}

// Tracer records spans in memory. Untraced iterations get no tracer and
// install no wrappers.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	cur   atomic.Pointer[root]

	mu       sync.Mutex
	aggs     map[string]*agg
	kept     []Span
	keptName map[string]int
	roots    map[string]*rootAgg
	runID    string
}

// NewTracer returns an empty tracer whose spans carry runID as trace id
// when no page URL applies.
func NewTracer(runID string) *Tracer {
	return &Tracer{
		epoch:    time.Now(),
		aggs:     make(map[string]*agg),
		keptName: make(map[string]int),
		roots:    make(map[string]*rootAgg),
		runID:    runID,
	}
}

func (t *Tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// Begin opens a root span over one engine call issued from lanes
// goroutines. Child spans ended before the matching EndRoot attach to it.
func (t *Tracer) Begin(name string, lanes int) *root {
	r := &root{Span: Span{Name: name, ID: t.ids.Add(1), Trace: t.runID, Start: t.ns(time.Now())}, lanes: lanes}
	t.cur.Store(r)
	return r
}

// EndRoot closes r, subtracting idle (time its lanes spent parked, which
// is neither child work nor the engine's own) from its self time, and
// returns that self time in ns.
func (t *Tracer) EndRoot(r *root, idle time.Duration) int64 {
	r.End = t.ns(time.Now())
	t.cur.CompareAndSwap(r, nil)
	wall := r.End - r.Start
	self := int64(r.lanes)*wall - r.child.Load() - idle.Nanoseconds()
	t.mu.Lock()
	a := t.roots[r.Name]
	if a == nil {
		a = &rootAgg{}
		t.roots[r.Name] = a
	}
	a.count++
	a.wall += wall
	a.self += self
	t.keep(r.Span)
	t.mu.Unlock()
	return self
}

// End records one child span that began at t0 and ends now. lane marks
// spans issued by the engine's own goroutines (they count against its
// self time); server-side spans pass false. sample keeps the duration
// for percentiles.
func (t *Tracer) End(name, trace string, t0 time.Time, bytes int64, failed, lane, sample bool) {
	t.Record(name, trace, t0, time.Since(t0), bytes, failed, lane, sample)
}

// Record is End for a span whose busy time d is not its wall interval:
// a body read spans several Read calls, and only their sum is busy.
func (t *Tracer) Record(name, trace string, t0 time.Time, dur time.Duration, bytes int64, failed, lane, sample bool) {
	d := dur.Nanoseconds()
	end := t0.Add(dur)
	var parent int64
	if r := t.cur.Load(); r != nil {
		parent = r.ID
		if lane {
			r.child.Add(d)
		}
	}
	if trace == "" {
		trace = t.runID
	}
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.count++
	a.ns += d
	a.bytes += bytes
	if failed {
		a.flags++
	}
	if sample {
		a.samples = append(a.samples, d)
	}
	if t.keptName[name] < maxSpansPerName {
		t.keptName[name]++
		t.keep(Span{Name: name, ID: t.ids.Add(1), Parent: parent, Trace: trace, Start: t.ns(t0), End: t.ns(end)})
	}
	t.mu.Unlock()
}

// Count records an untimed event: a counter of n units with a flag.
func (t *Tracer) Count(name string, n int64, flag bool) {
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.count++
	a.bytes += n
	if flag {
		a.flags++
	}
	t.mu.Unlock()
}

func (t *Tracer) keep(s Span) { t.kept = append(t.kept, s) }

// Stat returns the totals for a child span name (zero if none ended).
func (t *Tracer) Stat(name string) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// RootStat returns the totals for a root span name.
func (t *Tracer) RootStat(name string) rootAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.roots[name]; a != nil {
		return *a
	}
	return rootAgg{}
}

// SpanCount returns how many spans ended, roots included.
func (t *Tracer) SpanCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, a := range t.aggs {
		n += a.count
	}
	for _, a := range t.roots {
		n += a.count
	}
	return n
}

// WriteJSONL writes the kept spans, one JSON object per line, ordered by
// start time.
func (t *Tracer) WriteJSONL(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.kept...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentileMs returns the q-quantile (nearest rank) of ns samples, in
// milliseconds.
func percentileMs(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / 1e6
}
