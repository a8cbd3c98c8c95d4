package main

import "langcrawl/internal/telemetry"

// layerTotals carries what the traced iterations and side passes measured
// outside the tracer's spans. Counts are totals over the traced phase.
type layerTotals struct {
	iters int
	pages int64

	tracedRate, untracedRate float64

	generateS float64
	maxQueue  int

	// Incremental sim.
	revisits, useful int64
	// Evolver side pass.
	evolveNsPerVsec float64
	evolveMutations int64

	// Live engines.
	crawl      *telemetry.CrawlStats
	logRecords int64
	dbRecords  int64
	dbBytes    int64

	// Parse side pass.
	parsed, parseNs, parseBytes, parseLinks, parseSlow int64
}

// layerUnits lists every per-layer metric the traced run prints, with its
// unit; BENCHMARK.json's per_layer list mirrors it.
var layerUnits = map[string]string{
	"sim.self_ns_per_fetch":         "ns",
	"frontier.max_queue":            "count",
	"core.classify_ns_per_call":     "ns",
	"core.classify_calls":           "count",
	"core.decide_ns_per_call":       "ns",
	"core.decide_calls":             "count",
	"charset.detect_runs":           "count",
	"charset.detect_bytes_per_run":  "B",
	"charset.early_exit_frac":       "frac",
	"webgraph.generate_s":           "s",
	"webgraph.evolve_ns_per_vsec":   "ns",
	"webgraph.evolve_mutations":     "count",
	"sim.revisits":                  "count",
	"sim.revisit_useful_frac":       "frac",
	"webserve.serve_ns_per_req":     "ns",
	"webserve.requests":             "count",
	"webserve.body_bytes_per_req":   "B",
	"crawler.fetch_wait_ms_p50":     "ms",
	"crawler.fetch_wait_ms_p99":     "ms",
	"crawler.fetch_samples":         "count",
	"crawler.body_read_ns_per_page": "ns",
	"crawler.body_bytes_per_page":   "B",
	"crawler.fetch_errors":          "count",
	"crawler.self_ns_per_page":      "ns",
	"crawler.idle_s":                "s",
	"crawler.idle_waits":            "count",
	"frontier.pushes":               "count",
	"frontier.pops":                 "count",
	"frontier.steal_frac":           "frac",
	"parse.ns_per_page":             "ns",
	"parse.bytes_per_page":          "B",
	"parse.slow_fall_frac":          "frac",
	"crawlog.write_ns_per_record":   "ns",
	"crawlog.bytes_per_record":      "B",
	"crawlog.records":               "count",
	"linkdb.records":                "count",
	"linkdb.file_bytes":             "B",
	"checkpoint.writes":             "count",
	"checkpoint.write_ns_per_ckpt":  "ns",
	"checkpoint.bytes_per_ckpt":     "B",
	"trace.pages_per_s":             "1/s",
	"trace.overhead_frac":           "frac",
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics computes every per-layer metric. Counts are per
// iteration; a layer the workload does not reach reads 0.
func layerMetrics(tr *Tracer, lt *layerTotals) map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		m[k] = 0
	}
	it := int64(max(lt.iters, 1))
	perIter := func(n int64) float64 { return float64(n) / float64(it) }

	m["webgraph.generate_s"] = lt.generateS
	m["frontier.max_queue"] = float64(lt.maxQueue)

	run, inc := tr.RootStat("sim.Run"), tr.RootStat("sim.RunIncremental")
	if run.count+inc.count > 0 {
		m["sim.self_ns_per_fetch"] = ratio(run.self+inc.self, lt.pages)
	}
	m["sim.revisits"] = perIter(lt.revisits)
	m["sim.revisit_useful_frac"] = ratio(lt.useful, lt.revisits)
	m["webgraph.evolve_ns_per_vsec"] = lt.evolveNsPerVsec
	m["webgraph.evolve_mutations"] = float64(lt.evolveMutations)

	c := tr.Stat("core.classify")
	m["core.classify_ns_per_call"] = ratio(c.ns, c.count)
	m["core.classify_calls"] = perIter(c.count)
	d := tr.Stat("core.decide")
	m["core.decide_ns_per_call"] = ratio(d.ns, d.count)
	m["core.decide_calls"] = perIter(d.count)
	det := tr.Stat("charset.detect")
	m["charset.detect_runs"] = perIter(det.count)
	m["charset.detect_bytes_per_run"] = ratio(det.bytes, det.count)
	m["charset.early_exit_frac"] = ratio(det.flags, det.count)

	s := tr.Stat("webserve.serve")
	m["webserve.serve_ns_per_req"] = ratio(s.ns, s.count)
	m["webserve.requests"] = perIter(s.count)
	m["webserve.body_bytes_per_req"] = ratio(s.bytes, s.count)

	fw := tr.Stat("crawler.fetch_wait")
	m["crawler.fetch_wait_ms_p50"] = percentileMs(fw.samples, 0.50)
	m["crawler.fetch_wait_ms_p99"] = percentileMs(fw.samples, 0.99)
	m["crawler.fetch_samples"] = float64(len(fw.samples))
	br := tr.Stat("crawler.body_read")
	m["crawler.body_read_ns_per_page"] = ratio(br.ns, br.count)
	m["crawler.body_bytes_per_page"] = ratio(br.bytes, br.count)
	m["crawler.fetch_errors"] = perIter(fw.flags + br.flags)
	if r := tr.RootStat("crawler.Run"); r.count > 0 {
		m["crawler.self_ns_per_page"] = ratio(r.self, lt.pages)
	}
	if cs := lt.crawl; cs != nil {
		m["crawler.idle_s"] = cs.IdleTime.Snapshot().Sum / float64(it)
		m["crawler.idle_waits"] = perIter(cs.IdleWaits.Value())
		m["frontier.pushes"] = perIter(cs.Frontier.Pushes.Value())
		m["frontier.pops"] = perIter(cs.Frontier.Pops.Value())
		m["frontier.steal_frac"] = ratio(cs.Frontier.Steals.Value(), cs.Frontier.Pops.Value())
	}

	m["parse.ns_per_page"] = ratio(lt.parseNs, lt.parsed)
	m["parse.bytes_per_page"] = ratio(lt.parseBytes, lt.parsed)
	m["parse.slow_fall_frac"] = ratio(lt.parseSlow, lt.parseLinks)

	lw := tr.Stat("crawlog.write")
	m["crawlog.write_ns_per_record"] = ratio(lw.ns, lt.logRecords)
	m["crawlog.bytes_per_record"] = ratio(lw.bytes, lt.logRecords)
	m["crawlog.records"] = perIter(lt.logRecords)
	m["linkdb.records"] = perIter(lt.dbRecords)
	m["linkdb.file_bytes"] = perIter(lt.dbBytes)

	ck := tr.Stat("checkpoint.write")
	commits := tr.Stat("checkpoint.commit").count
	m["checkpoint.writes"] = perIter(commits)
	m["checkpoint.write_ns_per_ckpt"] = ratio(ck.ns, commits)
	m["checkpoint.bytes_per_ckpt"] = ratio(ck.bytes, commits)

	m["trace.pages_per_s"] = lt.tracedRate
	if lt.untracedRate > 0 {
		m["trace.overhead_frac"] = 1 - lt.tracedRate/lt.untracedRate
	}
	return m
}
