package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
)

// The wrappers in this file sit on the program's injectable interfaces —
// Classifier, Strategy, http.RoundTripper, http.Handler, io.Writer and
// checkpoint.FS — and are the only source of spans. None of them changes
// what the wrapped call returns.

// tracedClassifier times Score and reads the visit's detection memo.
type tracedClassifier struct {
	core.Classifier
	tr *Tracer
}

func (c tracedClassifier) Score(v *core.Visit) float64 {
	t0 := time.Now()
	s := c.Classifier.Score(v)
	c.tr.End("core.classify", v.URL, t0, 0, false, true, false)
	if info, ok := v.DetectionInfo(); ok {
		c.tr.Count("charset.detect", info.Scanned, info.EarlyExit)
	}
	return s
}

// tracedStrategy times Decide.
type tracedStrategy struct {
	core.Strategy
	tr *Tracer
}

func (s tracedStrategy) Decide(score float64, dist int) core.Decision {
	t0 := time.Now()
	d := s.Strategy.Decide(score, dist)
	s.tr.End("core.decide", "", t0, 0, false, true, false)
	return d
}

// wrapCore returns the classifier and strategy to hand an engine: the
// originals when tr is nil, timed wrappers otherwise.
func wrapCore(cls core.Classifier, st core.Strategy, tr *Tracer) (core.Classifier, core.Strategy) {
	if tr == nil {
		return cls, st
	}
	return tracedClassifier{cls, tr}, tracedStrategy{st, tr}
}

// capturedBody is one page body kept for the parse side pass.
type capturedBody struct {
	url         string
	contentType string
	body        []byte
}

// maxCaptured bounds the bodies kept for the parse side pass.
const maxCaptured = 1024

// transport counts every request, and with a tracer installed also times
// request-to-headers as fetch wait and wraps the body.
type transport struct {
	base     http.RoundTripper
	tr       atomic.Pointer[Tracer]
	requests atomic.Int64

	mu       sync.Mutex
	captured []capturedBody
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	tr := t.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	url := req.URL.String()
	tr.End("crawler.fetch_wait", url, t0, 0, err != nil, true, true)
	if err != nil {
		return resp, err
	}
	resp.Body = &timedBody{rc: resp.Body, t: t, tr: tr, url: url, contentType: resp.Header.Get("Content-Type"),
		capture: resp.StatusCode == http.StatusOK && t.wantCapture()}
	return resp, nil
}

func (t *transport) wantCapture() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.captured) < maxCaptured
}

// takeCaptured returns and clears the captured bodies.
func (t *transport) takeCaptured() []capturedBody {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.captured
	t.captured = nil
	return c
}

// timedBody times the crawler's body reads and keeps a copy of the first
// bodies for the parse side pass.
type timedBody struct {
	rc          io.ReadCloser
	t           *transport
	tr          *Tracer
	url         string
	contentType string
	capture     bool

	start  time.Time
	spent  time.Duration
	n      int64
	failed bool
	buf    []byte
	done   bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	if b.start.IsZero() {
		b.start = t0
	}
	n, err := b.rc.Read(p)
	b.spent += time.Since(t0)
	b.n += int64(n)
	if b.capture {
		b.buf = append(b.buf, p[:n]...)
	}
	if err != nil && err != io.EOF {
		b.failed = true
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	if b.done {
		return err
	}
	b.done = true
	if b.start.IsZero() {
		b.start = time.Now()
	}
	b.tr.Record("crawler.body_read", b.url, b.start, b.spent, b.n, b.failed, true, false)
	if b.capture && !b.failed {
		b.t.mu.Lock()
		if len(b.t.captured) < maxCaptured {
			b.t.captured = append(b.t.captured, capturedBody{b.url, b.contentType, b.buf})
		}
		b.t.mu.Unlock()
	}
	return err
}

// tracedHandler serves through inner, timing each request as a
// server-side webserve.serve span when a tracer is installed.
type tracedHandler struct {
	inner http.Handler
	tr    atomic.Pointer[Tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.inner.ServeHTTP(cw, r)
	tr.End("webserve.serve", "http://"+r.Host+r.URL.Path, t0, cw.n, false, false, false)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// timedFile is the crawl-log file under crawlog.NewWriter: every write
// and sync is a crawlog.write span.
type timedFile struct {
	f  *os.File
	tr *Tracer
}

func (w timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.f.Write(p)
	w.tr.End("crawlog.write", "", t0, int64(n), err != nil, true, false)
	return n, err
}

func (w timedFile) Sync() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.tr.End("crawlog.write", "", t0, 0, err != nil, true, false)
	return err
}

// timedFS times the write side of checkpointing. A checkpoint commits
// when its manifest is renamed into place; that rename is counted as one
// checkpoint.commit.
type timedFS struct {
	checkpoint.FS
	tr *Tracer
}

func (fs timedFS) op(t0 time.Time, n int64, err error) {
	fs.tr.End("checkpoint.write", "", t0, n, err != nil, true, false)
}

func (fs timedFS) MkdirAll(dir string) error {
	t0 := time.Now()
	err := fs.FS.MkdirAll(dir)
	fs.op(t0, 0, err)
	return err
}

func (fs timedFS) Create(name string) (checkpoint.File, error) {
	t0 := time.Now()
	f, err := fs.FS.Create(name)
	fs.op(t0, 0, err)
	if err != nil {
		return nil, err
	}
	return timedCkFile{f, fs}, nil
}

func (fs timedFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := fs.FS.Rename(oldpath, newpath)
	fs.op(t0, 0, err)
	if err == nil && filepath.Base(newpath) == checkpoint.ManifestName {
		fs.tr.Count("checkpoint.commit", 0, false)
	}
	return err
}

func (fs timedFS) Remove(name string) error {
	t0 := time.Now()
	err := fs.FS.Remove(name)
	fs.op(t0, 0, err)
	return err
}

func (fs timedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := fs.FS.SyncDir(dir)
	fs.op(t0, 0, err)
	return err
}

type timedCkFile struct {
	checkpoint.File
	fs timedFS
}

func (f timedCkFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.op(t0, int64(n), err)
	return n, err
}

func (f timedCkFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.op(t0, 0, err)
	return err
}

func (f timedCkFile) Close() error {
	t0 := time.Now()
	err := f.File.Close()
	f.fs.op(t0, 0, err)
	return err
}
