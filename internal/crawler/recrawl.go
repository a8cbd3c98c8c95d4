package crawler

import (
	"hash/fnv"
	"net/http"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/frontier"
	"langcrawl/internal/metrics"
)

// RecrawlConfig parameterizes the crawler's incremental crawl mode.
// After the discovery frontier drains, the engine runs Passes revisit
// sweeps over the corpus it crawled: each sweep orders the known-live
// URLs by estimated per-URL change rate (pages observed to change often
// are revalidated first) and refetches them with conditional GET —
// If-None-Match / If-Modified-Since from the validators the last visit
// recorded — so an unchanged page costs a 304 and zero body bytes.
// Revisit fetches consume the MaxPages budget and checkpoint like
// discovery fetches, but they never expand the frontier: a sweep
// refreshes held copies, it does not re-run discovery. A new sweep
// starts only once every fetch of the previous one has landed, so with
// several workers too each sweep is ordered by all the outcomes before
// it.
type RecrawlConfig struct {
	// Passes is the number of revisit sweeps (0 disables the mode).
	Passes int
}

// recrawlCtl is the engine's revisit state: the per-URL change ledger,
// the pass counter, the freshness counters, and the revisit priority
// queue for the sweep in progress. It has no lock of its own: workers
// touch it only under the engine's mu.
type recrawlCtl struct {
	cfg   RecrawlConfig
	recs  map[string]*checkpoint.RevisitRec
	order []string // first-observation order, for deterministic sweeps
	rq    *frontier.Heap[qitem]
	pass  int
	fresh metrics.FreshCounters
}

func newRecrawlCtl(cfg RecrawlConfig) *recrawlCtl {
	return &recrawlCtl{
		cfg:  cfg,
		recs: make(map[string]*checkpoint.RevisitRec),
		rq:   frontier.NewHeap[qitem](),
	}
}

// hashBody is the change detector of last resort: when a server sends
// 200 with no usable validators, the body hash tells an edit from a
// re-serving of the identical page.
func hashBody(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// estRate is the smoothed per-URL change-rate estimate that orders a
// sweep: changes per visit with a half-change prior, so a never-visited
// page sorts between a known-static and a known-churning one instead of
// at an extreme.
func estRate(r *checkpoint.RevisitRec) float64 {
	return (float64(r.Changes) + 0.5) / (float64(r.Visits) + 1)
}

// observeDiscovery registers a first-time successful fetch in the
// ledger with the response's validators. Only 200s enter: a page that
// never produced a copy has nothing to keep fresh.
func (rc *recrawlCtl) observeDiscovery(url string, dist int32, visit *core.Visit, val validators) {
	if visit.Status != http.StatusOK {
		return
	}
	if _, ok := rc.recs[url]; ok {
		return
	}
	r := &checkpoint.RevisitRec{URL: url, Dist: dist, Hash: hashBody(visit.Body), ETag: val.etag, LastMod: val.lastMod}
	rc.recs[url] = r
	rc.order = append(rc.order, url)
}

// next pops the most change-prone pending revisit. When the current
// sweep is exhausted and mayRefill is set — the engine is quiescent, so
// every outcome of the sweep is in the ledger — it starts the next one
// while passes remain. ok=false with mayRefill set means the
// incremental crawl is done.
func (rc *recrawlCtl) next(mayRefill bool) (qitem, bool) {
	for {
		if it, ok := rc.rq.Pop(); ok {
			return it, true
		}
		if !mayRefill || rc.pass >= rc.cfg.Passes {
			return qitem{}, false
		}
		if !rc.refill() {
			// Nothing left alive to revisit: the mode ends here, and
			// the other workers reaching quiescence must not count
			// further empty sweeps.
			rc.cfg.Passes = rc.pass
			return qitem{}, false
		}
	}
}

// refill loads the next sweep: every live ledger entry, at its current
// change-rate estimate. Reports whether anything was scheduled.
func (rc *recrawlCtl) refill() bool {
	rc.pass++
	n := 0
	for _, u := range rc.order {
		r := rc.recs[u]
		if r.Dead {
			continue
		}
		p := estRate(r)
		rc.rq.Push(qitem{url: u, dist: r.Dist, prio: p, revisit: true}, p)
		n++
	}
	return n > 0
}

// applyRevisit folds one revisit outcome, with the response's
// validators, into the ledger and counters.
func (rc *recrawlCtl) applyRevisit(url string, visit *core.Visit, val validators) {
	r := rc.recs[url]
	if r == nil {
		return
	}
	rc.fresh.Revisits++
	r.Visits++
	switch visit.Status {
	case http.StatusNotModified:
		rc.fresh.Unchanged++
		rc.fresh.CondHits++
	case http.StatusNotFound, http.StatusGone:
		rc.fresh.Deleted++
		r.Dead = true
	case http.StatusOK:
		if h := hashBody(visit.Body); h != r.Hash {
			rc.fresh.Changed++
			r.Changes++
			r.Hash = h
		} else {
			rc.fresh.Unchanged++
		}
		r.ETag, r.LastMod = val.etag, val.lastMod
	}
}

// validatorsFor returns what url's revisit sends as its conditional
// request (zero when the ledger has no copy).
func (rc *recrawlCtl) validatorsFor(url string) validators {
	r := rc.recs[url]
	if r == nil {
		return validators{}
	}
	return validators{etag: r.ETag, lastMod: r.LastMod}
}

// pendingEntries snapshots the revisit queue for a checkpoint by
// draining and re-pushing it, mirroring the engine's frontier snapshot.
func (rc *recrawlCtl) pendingEntries() []checkpoint.Entry {
	var items []qitem
	for {
		it, ok := rc.rq.Pop()
		if !ok {
			break
		}
		items = append(items, it)
	}
	entries := make([]checkpoint.Entry, len(items))
	for i, it := range items {
		entries[i] = checkpoint.Entry{URL: it.url, Dist: it.dist, Prio: it.prio, Revisit: true}
		rc.rq.Push(it, it.prio)
	}
	return entries
}

// pushEntry re-queues one checkpointed revisit entry on resume.
func (rc *recrawlCtl) pushEntry(e checkpoint.Entry) {
	rc.rq.Push(qitem{url: e.URL, dist: e.Dist, prio: e.Prio, revisit: true}, e.Prio)
}

// ledgerRecs exports the ledger for a checkpoint, in observation order.
func (rc *recrawlCtl) ledgerRecs() []checkpoint.RevisitRec {
	out := make([]checkpoint.RevisitRec, 0, len(rc.order))
	for _, u := range rc.order {
		out = append(out, *rc.recs[u])
	}
	return out
}

// restore rebuilds the ledger, pass counter and counters from a
// checkpoint (the queued sweep entries arrive separately via pushEntry).
func (rc *recrawlCtl) restore(st *checkpoint.State) {
	rc.pass = st.Pass
	rc.fresh = st.Fresh
	for i := range st.Revisit {
		r := st.Revisit[i]
		rc.recs[r.URL] = &r
		rc.order = append(rc.order, r.URL)
	}
}
