package crawler

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/conformance"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
)

func TestParallelFullCoverage(t *testing.T) {
	space, srv, client := testWeb(t, 500, 41)
	c, err := New(Config{
		Seeds:       seedsOf(space),
		Strategy:    core.SoftFocused{},
		Classifier:  core.MetaClassifier{Target: charset.LangThai},
		Client:      client,
		Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != space.N() {
		t.Errorf("parallel crawl fetched %d of %d", res.Crawled, space.N())
	}
	if res.Relevant != space.RelevantTotal() {
		t.Errorf("relevant %d, ground truth %d", res.Relevant, space.RelevantTotal())
	}
	if res.Errors != 0 {
		t.Errorf("%d errors", res.Errors)
	}
	// No page fetched twice. Robots fetches may occasionally duplicate
	// under the documented cache race, so the bound allows 2 per host.
	maxRequests := int64(space.N() + 2*len(space.Sites))
	if got := srv.Requests(); got > maxRequests {
		t.Errorf("server saw %d requests for %d pages (+ up to %d robots)",
			got, space.N(), 2*len(space.Sites))
	}
}

func TestParallelExactBudget(t *testing.T) {
	space, _, client := testWeb(t, 400, 43)
	c, _ := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Parallelism:  6,
		MaxPages:     77,
		IgnoreRobots: true,
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 77 {
		t.Errorf("parallel budget crawl fetched %d, want exactly 77", res.Crawled)
	}
}

func TestParallelMatchesSequentialSet(t *testing.T) {
	// Order differs under concurrency, but an exhaustive crawl must end
	// with the same totals as the one-worker crawl.
	space, _, client := testWeb(t, 400, 47)
	mk := func(par int) *Result {
		c, err := New(Config{
			Seeds:       seedsOf(space),
			Strategy:    core.SoftFocused{},
			Classifier:  core.MetaClassifier{Target: charset.LangThai},
			Client:      client,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(1)
	par := mk(4)
	if seq.Crawled != par.Crawled || seq.Relevant != par.Relevant {
		t.Errorf("one worker %d/%d vs four workers %d/%d",
			seq.Crawled, seq.Relevant, par.Crawled, par.Relevant)
	}
}

func TestParallelSequentialEquivalence(t *testing.T) {
	// Sequential-equivalence mode spelled out: one worker, one shard,
	// batch size 1 and synchronous appends must write the crawl log the
	// recorded live goldens pin — same pages, same order, same bytes.
	space, _, client := testWeb(t, conformance.SpacePages, conformance.SpaceSeed)
	for _, lc := range conformance.LiveCases() {
		var buf bytes.Buffer
		w, err := crawlog.NewWriter(&buf, crawlog.Header{Seeds: seedsOf(space)})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Seeds:          seedsOf(space),
			Strategy:       lc.Strategy,
			Classifier:     conformance.Classifier(),
			Client:         client,
			Log:            w,
			IgnoreRobots:   true,
			Parallelism:    1,
			FrontierShards: 1,
			FrontierBatch:  1,
			AppendBatch:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := conformance.TraceFromLog(space, lc.Strategy.Name(), buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		key := conformance.LiveGoldenKey(lc.Key)
		want, err := conformance.Load(filepath.Join("..", "..", "results", "golden", key+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(got); d != "" {
			t.Errorf("%s: sequential-equivalence crawl diverged from %s: %s", lc.Strategy.Name(), key, d)
		}
	}
}

func TestParallelShardedFullCoverage(t *testing.T) {
	// The sharded frontier at full width changes pop order but must not
	// lose or duplicate work: 8 workers over 8 shards still crawl the
	// whole space exactly once.
	space, srv, client := testWeb(t, 500, 71)
	c, err := New(Config{
		Seeds:          seedsOf(space),
		Strategy:       core.SoftFocused{},
		Classifier:     core.MetaClassifier{Target: charset.LangThai},
		Client:         client,
		Parallelism:    8,
		FrontierShards: 8,
		FrontierBatch:  16,
		IgnoreRobots:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != space.N() {
		t.Errorf("sharded crawl fetched %d of %d", res.Crawled, space.N())
	}
	if res.Relevant != space.RelevantTotal() {
		t.Errorf("relevant %d, ground truth %d", res.Relevant, space.RelevantTotal())
	}
	// Robots are off: every request is a page, so any duplicate fetch
	// shows up as extra requests.
	if got := srv.Requests(); got != int64(space.N()) {
		t.Errorf("server saw %d requests for %d pages", got, space.N())
	}
}

func TestParallelBatchedAppends(t *testing.T) {
	// Group-committed log/DB appends must record exactly the crawled set.
	space, _, client := testWeb(t, 300, 73)
	var buf bytes.Buffer
	w, err := crawlog.NewWriter(&buf, crawlog.Header{Seeds: seedsOf(space)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Seeds:          seedsOf(space),
		Strategy:       core.BreadthFirst{},
		Classifier:     core.MetaClassifier{Target: charset.LangThai},
		Client:         client,
		Log:            w,
		Parallelism:    4,
		FrontierShards: 4,
		FrontierBatch:  8,
		AppendBatch:    32,
		AppendInterval: 5 * time.Millisecond,
		IgnoreRobots:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := crawlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Crawled || res.Crawled != space.N() {
		t.Errorf("log has %d records, result says %d crawled, space has %d",
			len(recs), res.Crawled, space.N())
	}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if seen[rec.URL] {
			t.Errorf("URL %q logged twice", rec.URL)
		}
		seen[rec.URL] = true
	}
}

func TestParallelRobotsHonored(t *testing.T) {
	space, srv, client := testWeb(t, 300, 53)
	srv.RobotsDisallow = []string{"/"}
	c, _ := New(Config{
		Seeds:       seedsOf(space),
		Strategy:    core.BreadthFirst{},
		Classifier:  core.MetaClassifier{Target: charset.LangThai},
		Client:      client,
		Parallelism: 4,
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 0 {
		t.Errorf("crawled %d pages despite global disallow", res.Crawled)
	}
	if res.RobotsBlocked == 0 {
		t.Error("no robots blocks recorded")
	}
}

func TestParallelContextCancel(t *testing.T) {
	space, _, client := testWeb(t, 300, 59)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, _ := New(Config{
		Seeds:       seedsOf(space),
		Strategy:    core.BreadthFirst{},
		Classifier:  core.MetaClassifier{Target: charset.LangThai},
		Client:      client,
		Parallelism: 4,
	})
	done := make(chan struct{})
	var res *Result
	go func() {
		res, _ = c.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled parallel crawl did not terminate")
	}
	if res.Crawled != 0 {
		t.Errorf("canceled crawl fetched %d pages", res.Crawled)
	}
}

func TestParallelPoliteness(t *testing.T) {
	// With a per-host interval and everything on few hosts, even 8
	// workers cannot finish faster than the interval schedule allows.
	space, _, client := testWeb(t, 120, 61)
	c, _ := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Parallelism:  8,
		MaxPages:     12,
		HostInterval: 20 * time.Millisecond,
		IgnoreRobots: true,
	})
	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The 12 pages spread over few hosts; at least one host served ≥3
	// pages, so ≥40ms of booked delay exists on some chain.
	if res.Crawled >= 12 && time.Since(start) < 30*time.Millisecond {
		t.Errorf("crawl of %d pages finished in %v despite 20ms host interval",
			res.Crawled, time.Since(start))
	}
}
