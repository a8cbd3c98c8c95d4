package crawler

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// evolvingWeb is testWeb with an Evolver installed before serving.
func evolvingWeb(t *testing.T, pages int, seed uint64, ev webgraph.EvolveConfig, tick float64) (*webgraph.Space, *webserve.Server, *http.Client) {
	t.Helper()
	space, err := webgraph.Generate(webgraph.ThaiLike(pages, seed))
	if err != nil {
		t.Fatal(err)
	}
	srv := webserve.New(space)
	if ev.Enabled() {
		srv.SetEvolver(webgraph.NewEvolver(space, ev))
		srv.Tick = tick
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
		Timeout: 10 * time.Second,
	}
	return space, srv, client
}

func recrawlConfig(space *webgraph.Space, client *http.Client, passes int) Config {
	return Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Recrawl:      RecrawlConfig{Passes: passes},
	}
}

func runRecrawl(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecrawlConfigValidation pins the New-time validation: negative
// Passes are refused, and incremental mode runs at any parallelism.
func TestRecrawlConfigValidation(t *testing.T) {
	base := Config{
		Seeds: []string{"http://x/"}, Strategy: core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
	}
	bad := base
	bad.Recrawl.Passes = -1
	if _, err := New(bad); err == nil {
		t.Error("negative Passes accepted")
	}
	ok := base
	ok.Recrawl.Passes = 1
	ok.Parallelism = 4
	if _, err := New(ok); err != nil {
		t.Errorf("Recrawl with 4 workers refused: %v", err)
	}
}

// TestRecrawlUnchangedSpaceZeroBodyBytes is the conditional-GET payoff
// test: on a static space, two revisit sweeps transfer zero additional
// body bytes — every revalidation is answered 304 — and find nothing
// changed, with one worker and with four.
func TestRecrawlUnchangedSpaceZeroBodyBytes(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			// One-shot baseline on its own server, to meter discovery's
			// bytes.
			space, srvOne, client := testWeb(t, 400, 7)
			cfg := recrawlConfig(space, client, 0)
			cfg.Parallelism = par
			one := runRecrawl(t, cfg)
			bytesOneShot := srvOne.BodyBytes()

			space2, srvTwo, client2 := testWeb(t, 400, 7)
			cfg = recrawlConfig(space2, client2, 2)
			cfg.Parallelism = par
			res := runRecrawl(t, cfg)

			if res.Passes != 2 {
				t.Fatalf("completed %d passes, want 2", res.Passes)
			}
			if res.Fresh.Revisits == 0 {
				t.Fatal("no revisits happened")
			}
			if res.Crawled != one.Crawled+res.Fresh.Revisits {
				t.Errorf("crawled %d, want discovery %d + revisits %d", res.Crawled, one.Crawled, res.Fresh.Revisits)
			}
			if res.Fresh.CondHits != res.Fresh.Revisits || res.Fresh.Unchanged != res.Fresh.Revisits {
				t.Errorf("unchanged space: %s — every revisit should be a 304", res.Fresh)
			}
			if res.Fresh.Changed != 0 || res.Fresh.Deleted != 0 {
				t.Errorf("phantom changes on a static space: %s", res.Fresh)
			}
			if got := srvTwo.BodyBytes(); got != bytesOneShot {
				t.Errorf("revisit sweeps transferred %d extra body bytes, want 0", got-bytesOneShot)
			}
			// Discovery itself is unperturbed by the mode: same page
			// count, relevance and harvest as the one-shot run.
			if res.Relevant != one.Relevant {
				t.Errorf("recrawl run found %d relevant, one-shot %d", res.Relevant, one.Relevant)
			}
		})
	}
}

// TestRecrawlDetectsChurn crawls an evolving space whose virtual clock
// ticks per request: the revisit sweeps must observe real changes and
// deletions, and account every revisit to exactly one outcome — with
// one worker and with four.
func TestRecrawlDetectsChurn(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			space, _, client := evolvingWeb(t, 400, 7, webgraph.EvolveConfig{
				Seed:       99,
				EditRate:   0.004,
				DeleteRate: 0.0004,
			}, 1.0) // one virtual second per request
			cfg := recrawlConfig(space, client, 2)
			cfg.Parallelism = par
			res := runRecrawl(t, cfg)

			if res.Passes != 2 {
				t.Errorf("completed %d passes, want 2", res.Passes)
			}
			if res.Fresh.Revisits == 0 {
				t.Fatal("no revisits happened")
			}
			if res.Fresh.Changed == 0 {
				t.Error("churning space: no change observed across two sweeps")
			}
			if got := res.Fresh.Unchanged + res.Fresh.Changed + res.Fresh.Deleted; got != res.Fresh.Revisits {
				t.Errorf("revisit outcomes %d do not account for %d revisits (%s)", got, res.Fresh.Revisits, res.Fresh)
			}
			// Unchanged pages still answered 304 under churn.
			if res.Fresh.CondHits == 0 {
				t.Error("no conditional hits despite unchanged pages")
			}
		})
	}
}

// TestRecrawlKillResume interrupts an incremental crawl mid-sweep with
// the emulated SIGKILL and resumes it from the checkpoint: the resumed
// run's freshness accounting and pass count must match an uninterrupted
// run exactly.
func TestRecrawlKillResume(t *testing.T) {
	space, _, client := testWeb(t, 300, 7)
	want := runRecrawl(t, recrawlConfig(space, client, 2))
	if want.Fresh.Revisits == 0 {
		t.Fatal("baseline run had no revisits")
	}

	space2, _, client2 := testWeb(t, 300, 7)
	dir := t.TempDir()
	cfg := recrawlConfig(space2, client2, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 25
	// Kill inside the first revisit sweep: past discovery, before done.
	cfg.StopAfter = want.Crawled - want.Fresh.Revisits + want.Fresh.Revisits/3

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != checkpoint.ErrKilled {
		t.Fatalf("expected emulated kill, got %v", err)
	}

	cfg.StopAfter = 0
	res := runRecrawl(t, cfg)
	if res.Passes != want.Passes {
		t.Errorf("resumed run completed %d passes, want %d", res.Passes, want.Passes)
	}
	if res.Fresh != want.Fresh {
		t.Errorf("resumed freshness %s\nwant            %s", res.Fresh, want.Fresh)
	}
	if res.Crawled != want.Crawled {
		t.Errorf("resumed run crawled %d, uninterrupted %d", res.Crawled, want.Crawled)
	}
	if res.Relevant != want.Relevant {
		t.Errorf("resumed run relevant %d, uninterrupted %d", res.Relevant, want.Relevant)
	}
}
