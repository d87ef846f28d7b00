package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/faultfs"
	"waitfree/internal/obs"
)

// span is one timed call across a layer seam. Spans of one request share
// Trace, the X-Trace-Id the serving node assigned; Parent is filled in from
// time containment within a trace when the spans are analysed.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attrs  attrs  `json:"attrs"`
}

// attrs are a span's attributes; which are set depends on the span.
type attrs struct {
	Path    string `json:"path,omitempty"`    // client, serve
	Status  int    `json:"status,omitempty"`  // client, serve, cluster.peer
	Kind    string `json:"kind,omitempty"`    // cluster.peer: forward|artifact|gossip|probe|keys
	Op      string `json:"op,omitempty"`      // engine.spill: read|write|rename|remove|readdir|mkdir
	Bytes   int64  `json:"bytes,omitempty"`   // cluster.peer, engine.spill, cluster.fill, engine.admit
	Entries int64  `json:"entries,omitempty"` // engine.spill readdir
	InfoNs  int64  `json:"info_ns,omitempty"` // engine.spill readdir: Info() time on its entries
	Outcome string `json:"outcome,omitempty"` // cluster.fill: hit|miss|skip; engine.admit: ok|rejected
	Err     string `json:"err,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is never
// installed: untraced runs wire the stack exactly as production does.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	readdirs []*readdirSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name, trace string, start, end time.Time, a attrs) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Trace: trace,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Attrs: a,
	})
	t.mu.Unlock()
}

// reset drops the spans recorded so far: set-up traffic is not measured.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.readdirs = nil, nil
	t.mu.Unlock()
}

// readdirSpan is a spill-directory listing whose cost continues after
// ReadDir returns: the byte-budget sweep calls Info on every entry, on every
// spill. The Info time accumulates here and joins the span at write-out.
type readdirSpan struct {
	start, end time.Time
	entries    int
	infoNs     atomic.Int64
	err        string
}

// snapshot returns every span recorded so far, readdir spans included, with
// parents assigned and IDs in start order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	for _, r := range t.readdirs {
		out = append(out, span{
			Name: "engine.spill", Start: int64(r.start.Sub(t.epoch)), End: int64(r.end.Sub(t.epoch)),
			Attrs: attrs{Op: "readdir", Entries: int64(r.entries), InfoNs: r.infoNs.Load(), Err: r.err},
		})
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End > out[j].End
	})
	for i := range out {
		out[i].ID = i + 1
		out[i].Parent = 0
	}
	assignParents(out)
	return out
}

// assignParents links each span of a trace to the innermost earlier span
// of the same trace whose interval contains it. spans must be sorted by
// start, longer first on ties. Spans without a trace stay roots.
func assignParents(spans []span) {
	open := map[string][]int{} // trace → stack of enclosing span indices
	for i := range spans {
		s := &spans[i]
		if s.Trace == "" {
			continue
		}
		stack := open[s.Trace]
		for len(stack) > 0 {
			p := &spans[stack[len(stack)-1]]
			if p.Start <= s.Start && s.End <= p.End {
				s.Parent = p.ID
				break
			}
			stack = stack[:len(stack)-1]
		}
		open[s.Trace] = append(stack, i)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, c := range iv {
			if c[0] > curE {
				covered += curE - curS
				curS, curE = c[0], c[1]
			} else if c[1] > curE {
				curE = c[1]
			}
		}
		covered += curE - curS
		self[i] = s.dur() - covered
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeSpans writes spans as one JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i := range spans {
		data, err := json.Marshal(&spans[i])
		if err != nil {
			f.Close()
			return err
		}
		w.Write(data)
		if i < len(spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveHandler records a "serve" span around every request the node's
// handler answers. A forwarded query or a peer fetch carries the
// originating request's trace in X-Trace-Id and joins it; any other request
// takes the trace the serving layer assigned.
func (t *tracer) serveHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		id := r.Header.Get(cluster.HeaderTraceID)
		if id == "" {
			id = w.Header().Get(cluster.HeaderTraceID)
		}
		t.record("serve", id, start, end, attrs{Path: r.URL.Path, Status: sw.status})
	})
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// peerTransport records a "cluster.peer" span for every request one node
// sends another: forwards, artifact fetches, gossip, probes and key
// listings. The span ends when the response body is closed or drained.
type peerTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (p *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	kind := peerKind(req.URL.Path)
	id := req.Header.Get(cluster.HeaderTraceID)
	resp, err := p.inner.RoundTrip(req)
	if err != nil {
		p.t.record("cluster.peer", id, start, time.Now(), attrs{Kind: kind, Err: err.Error()})
		return nil, err
	}
	status := resp.StatusCode
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		p.t.record("cluster.peer", id, start, time.Now(), attrs{Kind: kind, Status: status, Bytes: n})
	}}
	return resp, nil
}

func peerKind(path string) string {
	switch {
	case strings.HasPrefix(path, cluster.ArtifactPath):
		return "artifact"
	case path == cluster.GossipPath:
		return "gossip"
	case path == cluster.ProbePath, path == "/healthz":
		return "probe"
	case path == cluster.KeysPath:
		return "keys"
	default:
		return "forward"
	}
}

// countingBody passes a response body through unchanged, counting bytes,
// and reports the count once, at EOF or Close, whichever comes first.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// traceOf returns the obs trace id a context carries, or "".
func traceOf(ctx context.Context) string {
	if tr := obs.FromContext(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// fillSpans wraps the cluster's engine.PeerFiller with "cluster.fill" spans.
type fillSpans struct {
	inner engine.PeerFiller
	t     *tracer
}

func (f fillSpans) Fetch(ctx context.Context, key string) ([]byte, string, error) {
	start := time.Now()
	payload, source, err := f.inner.Fetch(ctx, key)
	a := attrs{Outcome: "hit", Bytes: int64(len(payload))}
	switch {
	case err != nil:
		a.Outcome = "miss"
	case payload == nil && source == "":
		a.Outcome = "skip"
	}
	f.t.record("cluster.fill", traceOf(ctx), start, time.Now(), a)
	return payload, source, err
}

// admitSpans wraps the engine's cluster.Admitter with "engine.admit" spans
// around anti-entropy admissions.
type admitSpans struct {
	inner cluster.Admitter
	t     *tracer
}

func (a admitSpans) HasCached(key string) bool { return a.inner.HasCached(key) }

func (a admitSpans) AdmitEncoded(key string, payload []byte) bool {
	start := time.Now()
	ok := a.inner.AdmitEncoded(key, payload)
	out := attrs{Outcome: "ok", Bytes: int64(len(payload))}
	if !ok {
		out.Outcome = "rejected"
	}
	a.t.record("engine.admit", "", start, time.Now(), out)
	return ok
}

// spillFS is a pass-through faultfs.FS recording an "engine.spill" span per
// filesystem call of the spill tier.
type spillFS struct {
	inner faultfs.FS
	t     *tracer
}

func (s spillFS) op(op string, start time.Time, n int64, err error) {
	a := attrs{Op: op, Bytes: n}
	if err != nil {
		a.Err = err.Error()
	}
	s.t.record("engine.spill", "", start, time.Now(), a)
}

func (s spillFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.ReadFile(name)
	s.op("read", start, int64(len(data)), err)
	return data, err
}

func (s spillFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := time.Now()
	err := s.inner.WriteFile(name, data, perm)
	s.op("write", start, int64(len(data)), err)
	return err
}

func (s spillFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := s.inner.Rename(oldpath, newpath)
	s.op("rename", start, 0, err)
	return err
}

func (s spillFS) Remove(name string) error {
	start := time.Now()
	err := s.inner.Remove(name)
	s.op("remove", start, 0, err)
	return err
}

func (s spillFS) MkdirAll(path string, perm os.FileMode) error {
	start := time.Now()
	err := s.inner.MkdirAll(path, perm)
	s.op("mkdir", start, 0, err)
	return err
}

func (s spillFS) ReadDir(name string) ([]os.DirEntry, error) {
	rec := &readdirSpan{start: time.Now()}
	entries, err := s.inner.ReadDir(name)
	rec.end = time.Now()
	rec.entries = len(entries)
	if err != nil {
		rec.err = err.Error()
	}
	s.t.mu.Lock()
	s.t.readdirs = append(s.t.readdirs, rec)
	s.t.mu.Unlock()
	out := make([]os.DirEntry, len(entries))
	for i, e := range entries {
		out[i] = timedEntry{DirEntry: e, rec: rec}
	}
	return out, err
}

// timedEntry charges the time of Info() to the listing it came from.
type timedEntry struct {
	os.DirEntry
	rec *readdirSpan
}

func (e timedEntry) Info() (fs.FileInfo, error) {
	start := time.Now()
	info, err := e.DirEntry.Info()
	e.rec.infoNs.Add(int64(time.Since(start)))
	return info, err
}

// spanSummary groups what the per-layer metrics read from a span list.
type spanSummary struct {
	handlerUs, transportUs          []float64
	forwardMs, fetchMs, fetchKB     []float64
	gossip                          int
	spillWriteMs, spillReadMs       []float64
	readdirMs, readdirEntries       []float64
	clientNs, layerSelfNs, requests int64
}

// summarize reads the per-layer quantities out of an analysed span list.
func summarize(spans []span) spanSummary {
	var s spanSummary
	self := selfTimes(spans)
	idx := make(map[int]int, len(spans))
	for i, sp := range spans {
		idx[sp.ID] = i
	}
	// rootOf walks up to the span's root; only spans under a client root
	// count toward coverage.
	rootOf := func(i int) int {
		for spans[i].Parent != 0 {
			i = idx[spans[i].Parent]
		}
		return i
	}
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "client":
			s.requests++
			s.clientNs += sp.dur()
		case "serve":
			if p := sp.Parent; p != 0 && spans[idx[p]].Name == "client" {
				s.handlerUs = append(s.handlerUs, float64(sp.dur())/1e3)
				s.transportUs = append(s.transportUs, float64(spans[idx[p]].dur()-sp.dur())/1e3)
			}
		case "cluster.peer":
			switch sp.Attrs.Kind {
			case "forward":
				s.forwardMs = append(s.forwardMs, float64(sp.dur())/1e6)
			case "artifact":
				s.fetchMs = append(s.fetchMs, float64(sp.dur())/1e6)
				if sp.Attrs.Status == http.StatusOK {
					s.fetchKB = append(s.fetchKB, float64(sp.Attrs.Bytes)/1024)
				}
			case "gossip":
				s.gossip++
			}
		case "engine.spill":
			switch sp.Attrs.Op {
			case "write":
				s.spillWriteMs = append(s.spillWriteMs, float64(sp.dur())/1e6)
			case "read":
				if sp.Attrs.Err == "" {
					s.spillReadMs = append(s.spillReadMs, float64(sp.dur())/1e6)
				}
			case "readdir":
				s.readdirMs = append(s.readdirMs, float64(sp.dur()+sp.Attrs.InfoNs)/1e6)
				s.readdirEntries = append(s.readdirEntries, float64(sp.Attrs.Entries))
			}
		}
		if sp.Name != "client" && sp.Trace != "" && spans[rootOf(i)].Name == "client" {
			s.layerSelfNs += self[i]
		}
	}
	return s
}

// String counts the spans each per-layer metric rests on, for the report.
func (s spanSummary) String() string {
	return fmt.Sprintf("%d client spans, %d serve, %d forwards, %d fetches, %d spill writes, %d listings",
		s.requests, len(s.handlerUs), len(s.forwardMs), len(s.fetchMs), len(s.spillWriteMs), len(s.readdirMs))
}
