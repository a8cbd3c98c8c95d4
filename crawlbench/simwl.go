package main

import (
	"fmt"
	"time"

	"langcrawl/internal/core"
	"langcrawl/internal/sim"
	"langcrawl/internal/webgraph"
)

// FNV-1a over page IDs: the order digest of a crawl's OnVisit sequence.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// paperStrategies are the strategies of the paper's §5 matrix.
func paperStrategies() []core.Strategy {
	return []core.Strategy{
		core.BreadthFirst{},
		core.HardFocused{},
		core.SoftFocused{},
		core.LimitedDistance{N: 2},
		core.LimitedDistance{N: 2, Prioritized: true},
		core.DecayingBestFirst{},
	}
}

// neverDiscards reports whether st follows every outlink of every OK
// page, so its crawl must reach exactly the seeds' reachable set.
func neverDiscards(st core.Strategy) bool {
	switch st.(type) {
	case core.BreadthFirst, core.SoftFocused, core.DecayingBestFirst:
		return true
	}
	return false
}

// generate builds the workload's web space and times it.
func generate(cfg webgraph.Config) (*webgraph.Space, time.Duration, error) {
	t0 := time.Now()
	space, err := webgraph.Generate(cfg)
	return space, time.Since(t0), err
}

// digests remembers the first order digest seen per key and reports a
// later one that differs.
type digests map[string]uint64

func (d digests) check(key string, h uint64) error {
	if first, ok := d[key]; ok && first != h {
		return fmt.Errorf("%s: visit order digest %016x, first run gave %016x", key, h, first)
	} else if !ok {
		d[key] = h
	}
	return nil
}

// simStrategies runs the strategy matrix through sim.Run.
type simStrategies struct {
	space   *webgraph.Space
	gen     time.Duration
	want    reach
	seen    digests
	maxQ    int
	strats  []core.Strategy
	classif core.Classifier
}

// reach is the ground truth of a crawl that never discards links.
type reach struct {
	visited, relevant int
}

func newSimStrategies(env *Env) (*simStrategies, error) {
	space, gen, err := generate(webgraph.ThaiLike(env.Sizes.SimPages, env.Seed))
	if err != nil {
		return nil, err
	}
	rel, vis := space.ReachableFromSeeds()
	return &simStrategies{
		space: space, gen: gen, want: reach{vis, rel}, seen: digests{},
		strats:  paperStrategies(),
		classif: core.MetaClassifier{Target: space.Target},
	}, nil
}

func (s *simStrategies) Iterate(m *Meter, tr *Tracer) (window, int, int, error) {
	results := make([]*sim.Result, len(s.strats))
	hashes := make([]uint64, len(s.strats))
	pages := 0
	var runErr error
	m.Start()
	for i, st := range s.strats {
		h := uint64(fnvOffset)
		cls, wst := wrapCore(s.classif, st, tr)
		cfg := sim.Config{Strategy: wst, Classifier: cls, OnVisit: func(id webgraph.PageID) { h = (h ^ uint64(id)) * fnvPrime }}
		var r *root
		if tr != nil {
			r = tr.Begin("sim.Run", 1)
		}
		res, err := sim.Run(s.space, cfg)
		if tr != nil {
			tr.EndRoot(r, 0)
		}
		if err != nil {
			runErr = fmt.Errorf("%s: %w", st.Name(), err)
			break
		}
		pages += res.Crawled
		results[i], hashes[i] = res, h
	}
	w := m.Stop(pages)
	if runErr != nil {
		return w, pages, 0, runErr
	}
	return w, pages, 0, s.check(results, hashes)
}

func (s *simStrategies) check(results []*sim.Result, hashes []uint64) error {
	for i, st := range s.strats {
		r := results[i]
		s.maxQ = max(s.maxQ, r.MaxQueueLen)
		if neverDiscards(st) && (r.Crawled != s.want.visited || r.RelevantCrawled != s.want.relevant) {
			return fmt.Errorf("%s: crawled %d (%d relevant), reachable set has %d (%d relevant)",
				st.Name(), r.Crawled, r.RelevantCrawled, s.want.visited, s.want.relevant)
		}
		if err := s.seen.check(st.Name(), hashes[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *simStrategies) Layers(tr *Tracer, lt *layerTotals) error {
	lt.maxQueue = max(lt.maxQueue, s.maxQ)
	return nil
}

func (s *simStrategies) GenerateTime() time.Duration { return s.gen }

// recrawlFetchCost is the virtual seconds one fetch takes: 100 fetches
// per virtual second. At one fetch per second NewsChurn deletes nearly
// every page before discovery reaches it, and the run is almost all
// revisits; at this rate discovery covers the space and a quarter of the
// fetches are discovery, the rest revisits that find changes.
const recrawlFetchCost = 0.01

// recrawl runs sim.RunIncremental over a churning space.
type recrawl struct {
	space   *webgraph.Space
	gen     time.Duration
	evolve  webgraph.EvolveConfig
	horizon float64
	seen    digests
	maxQ    int
	vtime   float64

	revisits, useful int64 // over traced iterations
}

func newRecrawl(env *Env) (*recrawl, error) {
	space, gen, err := generate(webgraph.ThaiLike(env.Sizes.RecrawlPages, env.Seed))
	if err != nil {
		return nil, err
	}
	// One discovery length is the virtual time to fetch every page once.
	discovery := float64(space.N()) * recrawlFetchCost
	return &recrawl{
		space: space, gen: gen, evolve: webgraph.NewsChurn(env.Seed),
		horizon: env.Sizes.RecrawlHorizons * discovery, seen: digests{},
	}, nil
}

func (s *recrawl) Iterate(m *Meter, tr *Tracer) (window, int, int, error) {
	h := uint64(fnvOffset)
	cls, st := wrapCore(core.MetaClassifier{Target: s.space.Target}, core.SoftFocused{}, tr)
	cfg := sim.Config{Strategy: st, Classifier: cls, OnVisit: func(id webgraph.PageID) { h = (h ^ uint64(id)) * fnvPrime }}
	m.Start()
	var r *root
	if tr != nil {
		r = tr.Begin("sim.RunIncremental", 1)
	}
	res, err := sim.RunIncremental(s.space, cfg, sim.RecrawlConfig{Evolve: s.evolve, Horizon: s.horizon, FetchCost: recrawlFetchCost})
	if tr != nil {
		tr.EndRoot(r, 0)
	}
	if err != nil {
		return m.Stop(0), 0, 0, err
	}
	w := m.Stop(res.Crawled)
	f := res.Fresh
	if tr != nil {
		s.revisits += int64(f.Revisits)
		s.useful += int64(f.Changed + f.Deleted + f.Born)
	}
	s.maxQ, s.vtime = res.MaxQueueLen, res.VTime
	switch {
	case f.Unchanged+f.Changed+f.Deleted+f.Born != f.Revisits:
		err = fmt.Errorf("revisit outcomes %d+%d+%d+%d do not sum to %d revisits",
			f.Unchanged, f.Changed, f.Deleted, f.Born, f.Revisits)
	case res.VTime < s.horizon:
		err = fmt.Errorf("virtual clock stopped at %.0f, before the %.0f horizon", res.VTime, s.horizon)
	default:
		err = s.seen.check("incremental", h)
	}
	return w, res.Crawled, 0, err
}

// Layers runs the evolver side pass: a fresh evolver stepped one fetch
// cost at a time over the last run's clock, as the run steps it.
func (s *recrawl) Layers(tr *Tracer, lt *layerTotals) error {
	lt.maxQueue = max(lt.maxQueue, s.maxQ)
	lt.revisits, lt.useful = s.revisits, s.useful
	ev := webgraph.NewEvolver(s.space, s.evolve)
	t0 := time.Now()
	for i := 1; float64(i)*recrawlFetchCost <= s.vtime; i++ {
		ev.AdvanceTo(float64(i) * recrawlFetchCost)
	}
	ev.AdvanceTo(s.vtime)
	if s.vtime > 0 {
		lt.evolveNsPerVsec = float64(time.Since(t0).Nanoseconds()) / s.vtime
	}
	for id := 0; id < s.space.N(); id++ {
		lt.evolveMutations += int64(ev.Version(webgraph.PageID(id)))
	}
	fmt.Printf("# side pass (evolver): %.0f virtual seconds\n", s.vtime)
	return nil
}

func (s *recrawl) GenerateTime() time.Duration { return s.gen }

// simEngines is the sim workload. Each iteration runs the strategy matrix
// through sim.Run, then one incremental recrawl through sim.RunIncremental;
// its window is the two engine calls' windows joined.
type simEngines struct {
	matrix *simStrategies
	inc    *recrawl
}

func setupSim(env *Env) (Instance, error) {
	matrix, err := newSimStrategies(env)
	if err != nil {
		return nil, err
	}
	inc, err := newRecrawl(env)
	if err != nil {
		return nil, err
	}
	return &simEngines{matrix, inc}, nil
}

func (s *simEngines) Iterate(m *Meter, tr *Tracer) (window, int, int, error) {
	w, att, failed, err := s.matrix.Iterate(m, tr)
	if err != nil {
		return w, att, failed, err
	}
	w2, att2, failed2, err := s.inc.Iterate(m, tr)
	return w.plus(w2), att + att2, failed + failed2, err
}

func (s *simEngines) Layers(tr *Tracer, lt *layerTotals) error {
	if err := s.matrix.Layers(tr, lt); err != nil {
		return err
	}
	return s.inc.Layers(tr, lt)
}

func (s *simEngines) GenerateTime() time.Duration {
	return s.matrix.GenerateTime() + s.inc.GenerateTime()
}

func (s *simEngines) Close() error { return nil }
