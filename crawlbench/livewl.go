package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/linkdb"
	"langcrawl/internal/parse"
	"langcrawl/internal/sim"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// Live engine settings.
const (
	appendBatch = 64   // crawl-log and link-DB group-commit size
	ckptEvery   = 1000 // pages between live-crawl checkpoints
)

// liveJournal is crawler.Run at Parallelism = lanes against a space
// served over HTTP on 127.0.0.1, journaling to a crawl log and link DB and
// checkpointing into a fresh temp dir per iteration.
type liveJournal struct {
	space   *webgraph.Space
	gen     time.Duration
	want    map[webgraph.PageID]bool // ground-truth crawled set
	seeds   []string
	pages   *tracedHandler
	srv     *httptest.Server
	fetch   *transport
	client  *http.Client
	scratch string
	lanes   int

	stats      *telemetry.CrawlStats // traced iterations only
	maxQ       int
	logRecords int64
	dbRecords  int64
	dbBytes    int64
}

// liveStrategy and liveClassifier are the crawl's policy; the ground
// truth is sim.Run's visited set under the same pair.
var (
	liveStrategy   core.Strategy   = core.SoftFocused{}
	liveClassifier core.Classifier = core.HybridClassifier{Target: charset.LangThai}
)

func setupLive(env *Env) (Instance, error) {
	space, gen, err := generate(webgraph.ThaiLike(env.Sizes.LivePages, env.Seed))
	if err != nil {
		return nil, err
	}
	ref, err := sim.Run(space, sim.Config{Strategy: liveStrategy, Classifier: liveClassifier, KeepVisited: true})
	if err != nil {
		return nil, err
	}
	l := &liveJournal{space: space, gen: gen, want: map[webgraph.PageID]bool{}, scratch: env.Scratch, lanes: env.Lanes}
	for id, v := range ref.Visited {
		if v {
			l.want[webgraph.PageID(id)] = true
		}
	}
	for _, id := range space.Seeds {
		l.seeds = append(l.seeds, space.URL(id))
	}
	l.pages = &tracedHandler{inner: webserve.New(space)}
	l.srv = httptest.NewServer(l.pages)
	proxy, err := url.Parse(l.srv.URL)
	if err != nil {
		l.srv.Close()
		return nil, err
	}
	// Every virtual host is reached through the server as an HTTP proxy,
	// so requests share one connection pool of lanes connections instead
	// of one pool per host: the connection count, and the memory behind
	// it, does not depend on how many hosts the seed's space has.
	l.fetch = &transport{base: &http.Transport{
		Proxy:               http.ProxyURL(proxy),
		MaxIdleConnsPerHost: env.Lanes,
	}}
	l.client = &http.Client{Transport: l.fetch, Timeout: 30 * time.Second}
	return l, nil
}

// trace installs (or, with nil, removes) the tracer on the page path.
func (l *liveJournal) trace(tr *Tracer) {
	l.pages.tr.Store(tr)
	l.fetch.tr.Store(tr)
}

func (l *liveJournal) Iterate(m *Meter, tr *Tracer) (window, int, int, error) {
	dir, err := os.MkdirTemp(l.scratch, "live-")
	if err != nil {
		return window{}, 0, 0, err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "crawl.log"))
	if err != nil {
		return window{}, 0, 0, err
	}
	defer f.Close()
	var sink io.Writer = f
	if tr != nil {
		sink = timedFile{f, tr}
	}
	log, err := crawlog.NewWriter(sink, crawlog.Header{Target: charset.LangThai, SpaceSeed: l.space.Seed, Seeds: l.seeds})
	if err != nil {
		return window{}, 0, 0, err
	}
	db, err := linkdb.Open(filepath.Join(dir, "links.db"))
	if err != nil {
		return window{}, 0, 0, err
	}
	defer db.Close()

	cls, st := wrapCore(liveClassifier, liveStrategy, tr)
	cfg := crawler.Config{
		Seeds: l.seeds, Strategy: st, Classifier: cls, Client: l.client,
		IgnoreRobots: true, Parallelism: l.lanes,
		Log: log, DB: db, AppendBatch: appendBatch,
		CheckpointDir: filepath.Join(dir, "ck"), CheckpointEvery: ckptEvery,
	}
	if tr != nil {
		if l.stats == nil {
			l.stats = telemetry.NewCrawlStats(telemetry.NewRegistry())
		}
		cfg.Telemetry = l.stats
		cfg.CheckpointFS = timedFS{checkpoint.OSFS{}, tr}
	}
	l.trace(tr)
	defer l.trace(nil)
	req0 := l.fetch.requests.Load()

	m.Start()
	var r *root
	var idle0 float64
	if tr != nil {
		idle0 = l.stats.IdleTime.Snapshot().Sum
		r = tr.Begin("crawler.Run", l.lanes)
	}
	c, err := crawler.New(cfg)
	var res *crawler.Result
	if err == nil {
		res, err = c.Run(context.Background())
	}
	if err == nil {
		err = log.Flush()
	}
	if tr != nil {
		tr.EndRoot(r, time.Duration((l.stats.IdleTime.Snapshot().Sum-idle0)*1e9))
	}
	pages := 0
	if res != nil {
		pages = res.Crawled
	}
	w := m.Stop(pages)
	attempted := int(l.fetch.requests.Load() - req0)
	if err != nil {
		return w, attempted, 0, err
	}
	return w, attempted, res.Errors, l.check(f, db, res, tr != nil)
}

// check reads the crawl log back: its URL set must equal the reference
// crawl's, and log records, link-DB entries and Crawled must agree.
func (l *liveJournal) check(f *os.File, db *linkdb.DB, res *crawler.Result, traced bool) error {
	urls, err := readLog(f.Name())
	if err != nil {
		return err
	}
	l.maxQ = res.MaxQueueLen
	if traced {
		l.logRecords += int64(len(urls))
		l.dbRecords += int64(db.Len())
		if fi, err := os.Stat(db.Path()); err == nil {
			l.dbBytes += fi.Size()
		}
	}
	if len(urls) != res.Crawled || db.Len() != res.Crawled {
		return fmt.Errorf("crawl log has %d records, link DB %d, crawler reports %d pages", len(urls), db.Len(), res.Crawled)
	}
	got := make(map[webgraph.PageID]bool, len(urls))
	for _, u := range urls {
		id, ok := l.space.PageByURL(u)
		if !ok {
			return fmt.Errorf("crawled %s, which is not in the space", u)
		}
		got[id] = true
	}
	return compareSets(got, l.want, l.space)
}

// compareSets reports the first differences between a crawled and an
// expected page set.
func compareSets(got, want map[webgraph.PageID]bool, space *webgraph.Space) error {
	var missing, extra []webgraph.PageID
	for id := range want {
		if !got[id] {
			missing = append(missing, id)
		}
	}
	for id := range got {
		if !want[id] {
			extra = append(extra, id)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	first := func(ids []webgraph.PageID) string {
		if len(ids) == 0 {
			return "-"
		}
		return space.URL(ids[0])
	}
	return fmt.Errorf("crawled set differs from the reference: %d missing (first %s), %d extra (first %s)",
		len(missing), first(missing), len(extra), first(extra))
}

// readLog returns the URLs of a crawl log's successful fetch records.
func readLog(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := crawlog.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var urls []string
	for _, rec := range recs {
		if rec.Failure == 0 {
			urls = append(urls, rec.URL)
		}
	}
	return urls, nil
}

func (l *liveJournal) Layers(tr *Tracer, lt *layerTotals) error {
	lt.maxQueue = l.maxQ
	lt.crawl = l.stats
	lt.logRecords, lt.dbRecords, lt.dbBytes = l.logRecords, l.dbRecords, l.dbBytes
	parseSidePass(l.fetch.takeCaptured(), lt)
	return nil
}

func (l *liveJournal) GenerateTime() time.Duration { return l.gen }
func (l *liveJournal) Close() error {
	l.srv.Close()
	l.fetch.base.(*http.Transport).CloseIdleConnections()
	return nil
}

// parseSidePass times parse.Pipeline.Run over the bodies the traced
// iterations captured. Detection runs outside the timed call.
func parseSidePass(bodies []capturedBody, lt *layerTotals) {
	pipe := parse.Get()
	defer pipe.Release()
	for _, b := range bodies {
		declared := charset.Unknown
		if _, params, ok := strings.Cut(b.contentType, "charset="); ok {
			declared = charset.Parse(params)
		}
		detected := charset.Detect(b.body).Charset
		t0 := time.Now()
		doc, _ := pipe.Run(b.body, declared, detected, b.url)
		lt.parseNs += time.Since(t0).Nanoseconds()
		info := pipe.Info()
		lt.parsed++
		lt.parseBytes += info.Bytes
		lt.parseSlow += int64(info.SlowFalls)
		lt.parseLinks += int64(len(doc.Links))
	}
	fmt.Printf("# side pass (parse): %d captured bodies\n", len(bodies))
}
