package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/urlutil"
)

const sampleRobots = `# comment
User-agent: *
Disallow: /private/
Disallow: /tmp
Allow: /private/public/

User-agent: langcrawl
Disallow: /langcrawl-only/
`

func TestParseRobotsStarGroup(t *testing.T) {
	r := ParseRobots([]byte(sampleRobots), "otherbot/2.0")
	cases := []struct {
		path string
		want bool
	}{
		{"/", true},
		{"/page.html", true},
		{"/private/", false},
		{"/private/x.html", false},
		{"/private/public/ok.html", true}, // longest match wins, Allow
		{"/tmp", false},
		{"/tmpfile", false}, // prefix rule
		{"/langcrawl-only/x", true},
	}
	for _, c := range cases {
		if got := r.Allowed(c.path); got != c.want {
			t.Errorf("star group Allowed(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestParseRobotsSpecificGroupWins(t *testing.T) {
	r := ParseRobots([]byte(sampleRobots), "langcrawl/1.0")
	if r.Allowed("/langcrawl-only/x") {
		t.Error("specific group should disallow /langcrawl-only/")
	}
	// The specific group replaces the star group entirely (REP groups
	// are exclusive).
	if !r.Allowed("/private/secret") {
		t.Error("specific group has no /private/ rule")
	}
}

func TestParseRobotsEmpty(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("junk without colons\n")} {
		r := ParseRobots(body, "any")
		if !r.Allowed("/anything") {
			t.Errorf("empty robots (%q) must allow everything", body)
		}
	}
	var nilRobots *Robots
	if !nilRobots.Allowed("/x") {
		t.Error("nil Robots must allow")
	}
}

func TestParseRobotsEmptyDisallow(t *testing.T) {
	r := ParseRobots([]byte("User-agent: *\nDisallow:\n"), "x")
	if !r.Allowed("/any") {
		t.Error("empty Disallow means allow all")
	}
}

func TestParseRobotsMultipleGroups(t *testing.T) {
	body := []byte(`User-agent: a
Disallow: /a-only/

User-agent: b
Disallow: /b-only/
`)
	ra := ParseRobots(body, "a")
	if ra.Allowed("/a-only/x") || !ra.Allowed("/b-only/x") {
		t.Error("agent a got wrong group")
	}
	rb := ParseRobots(body, "b")
	if rb.Allowed("/b-only/x") || !rb.Allowed("/a-only/x") {
		t.Error("agent b got wrong group")
	}
}

func TestParseRobotsStackedAgents(t *testing.T) {
	// Two User-agent lines heading one rule block apply to both.
	body := []byte("User-agent: a\nUser-agent: b\nDisallow: /x/\n")
	for _, ua := range []string{"a", "b"} {
		if ParseRobots(body, ua).Allowed("/x/p") {
			t.Errorf("agent %s should be disallowed", ua)
		}
	}
}

func TestCrawlDelay(t *testing.T) {
	body := []byte(`User-agent: *
Crawl-delay: 2
Disallow: /x/

User-agent: langcrawl
Crawl-delay: 0.5
Disallow: /y/
`)
	star := ParseRobots(body, "otherbot")
	if star.CrawlDelay != 2*time.Second {
		t.Errorf("star Crawl-delay = %v", star.CrawlDelay)
	}
	mine := ParseRobots(body, "langcrawl/1.0")
	if mine.CrawlDelay != 500*time.Millisecond {
		t.Errorf("specific Crawl-delay = %v", mine.CrawlDelay)
	}

	// Delay takes the max of configured and requested.
	if got := star.Delay(time.Second); got != 2*time.Second {
		t.Errorf("Delay(1s) = %v, want 2s", got)
	}
	if got := star.Delay(5 * time.Second); got != 5*time.Second {
		t.Errorf("Delay(5s) = %v, want configured 5s", got)
	}
	var nilRobots *Robots
	if got := nilRobots.Delay(time.Second); got != time.Second {
		t.Errorf("nil Delay = %v", got)
	}
}

func TestCrawlDelayGarbageIgnored(t *testing.T) {
	for _, val := range []string{"-5", "nonsense", "999999"} {
		r := ParseRobots([]byte("User-agent: *\nCrawl-delay: "+val+"\n"), "x")
		if r.CrawlDelay != 0 {
			t.Errorf("Crawl-delay %q accepted as %v", val, r.CrawlDelay)
		}
	}
}

func TestAllowedEmptyPath(t *testing.T) {
	r := ParseRobots([]byte("User-agent: *\nDisallow: /\n"), "x")
	if r.Allowed("") {
		t.Error("empty path should be treated as / and disallowed")
	}
}

// TestRobotsCheckedBeforePoliteness pins the order of the two per-fetch
// gates: a robots-blocked URL books no politeness slot for its host, and
// once the robots check has cached the host's rules its Crawl-delay
// governs even the first real fetch. The clock is frozen, so the ledger
// entry is exact: one Crawl-delay booked from t0. Checking politeness
// first would leave t0 + 10ms (the blocked URL's booking) + 3s.
func TestRobotsCheckedBeforePoliteness(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/robots.txt", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "User-agent: *\nDisallow: /blocked\nCrawl-delay: 3\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><body>no links</body></html>")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	c, err := New(Config{
		Seeds:        []string{ts.URL + "/blocked", ts.URL + "/page"},
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       ts.Client(),
		HostInterval: 10 * time.Millisecond,
		Now:          func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.RobotsBlocked != 1 || res.Crawled != 1 {
		t.Fatalf("blocked %d, crawled %d; want 1 and 1", res.RobotsBlocked, res.Crawled)
	}
	host := urlutil.Host(ts.URL + "/page")
	c.polite.mu.Lock()
	got, booked := c.polite.next[host]
	c.polite.mu.Unlock()
	if want := t0.Add(3 * time.Second); !booked || !got.Equal(want) {
		t.Errorf("host %s next slot %v (booked %v), want t0 + Crawl-delay = %v", host, got, booked, want)
	}
}
