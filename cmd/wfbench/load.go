package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: two goroutines, each sending
// its next request only after the previous answer arrived and was checked,
// so at most two requests are ever in flight — the way the CLI, scripts and
// examples/service call the service.
const clients = 2

// get sends one GET and reads the whole body into buf (allocated when nil).
// It returns the body, the status and the X-Trace-Id the server assigned.
func (b *bench) get(url string, buf *bytes.Buffer) ([]byte, int, string, error) {
	resp, err := b.client.Get(url)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, "", fmt.Errorf("GET %s: reading body: %w", url, err)
	}
	return buf.Bytes(), resp.StatusCode, resp.Header.Get("X-Trace-Id"), nil
}

// checker holds the reference answer of every query of a workload and
// judges each answer against it. A query's reference is either preset (the
// mix, computed on a fresh single node at set-up) or the first answer seen
// (replays), which a sample recomputation on a fresh node confirms later.
type checker struct {
	qs      []query
	ref     []atomic.Pointer[[]byte]
	preset  []bool
	checks  atomic.Int64
	failed  atomic.Int64
	mu      sync.Mutex
	reports []string
}

// maxReports bounds how many failures are described on standard error.
const maxReports = 10

func newChecker(qs []query, preset [][]byte) *checker {
	c := &checker{qs: qs, ref: make([]atomic.Pointer[[]byte], len(qs)), preset: make([]bool, len(qs))}
	for k, body := range preset {
		if body != nil {
			body := body
			c.ref[k].Store(&body)
			c.preset[k] = true
		}
	}
	return c
}

// check judges the answer to query k: a transport error, a non-200 or a
// body that differs from the reference by one byte is a failure.
func (c *checker) check(k, status int, body []byte, err error) bool {
	c.checks.Add(1)
	switch {
	case err != nil:
		return c.fail("%s: %v", c.qs[k].path, err)
	case status != http.StatusOK:
		return c.fail("%s: status %d: %.200s", c.qs[k].path, status, body)
	}
	ref := c.ref[k].Load()
	if ref == nil {
		first := append([]byte(nil), body...)
		if g := c.qs[k].golden; g != nil {
			if err := g(first); err != nil {
				return c.fail("%s: %v", c.qs[k].path, err)
			}
		}
		if c.ref[k].CompareAndSwap(nil, &first) {
			return true
		}
		ref = c.ref[k].Load()
	}
	if !bytes.Equal(*ref, body) {
		return c.fail("%s: answer differs from the reference:\n  got  %.200s\n  want %.200s", c.qs[k].path, body, *ref)
	}
	return true
}

func (c *checker) fail(format string, args ...any) bool {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.reports) < maxReports {
		c.reports = append(c.reports, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
	return false
}

// load is what one or more closed-loop drives measured.
type load struct {
	lat       *histogram // client-observed latency of every request, ms
	attempted int
	ok        int
	elapsed   time.Duration
}

func (l *load) add(m load) {
	if l.lat == nil {
		l.lat = newHistogram()
	}
	l.lat.merge(m.lat)
	l.attempted += m.attempted
	l.ok += m.ok
	l.elapsed += m.elapsed
}

// drive runs the closed loop over seq from position start: the clients take
// positions from a shared counter, so the requests sent are always exactly
// positions start … start+attempted−1, until n are taken or deadline (when
// set) passes. Every answer is checked; with tr set, each request is a
// "client" span.
func (b *bench) drive(c *checker, urls []string, seq sequence, start, n int, deadline time.Time, tr *tracer) load {
	var next atomic.Int64
	var wg sync.WaitGroup
	results := make([]load, clients)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		results[w].lat = newHistogram()
		wg.Add(1)
		go func(res *load) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				node, k := seq.at(start + i)
				q := &c.qs[k]
				begin := time.Now()
				body, status, id, err := b.get(urls[node]+q.path, &buf)
				end := time.Now()
				res.attempted++
				if c.check(k, status, body, err) {
					res.ok++
				}
				res.lat.add(ms(end.Sub(begin)))
				if tr != nil {
					tr.record("client", id, begin, end, attrs{Path: q.path, Status: status})
				}
			}
		}(&results[w])
	}
	wg.Wait()
	out := load{elapsed: time.Since(t0)}
	for _, r := range results {
		out.add(r)
	}
	return out
}

// usage is the process's memory behaviour over a measured interval.
type usage struct {
	heapPeak uint64 // peak live heap, sampled every 50ms
	alloc    uint64 // bytes allocated
	gcs      uint64 // completed GC cycles
}

// heapSampleEvery is the heap-peak sampling period.
const heapSampleEvery = 50 * time.Millisecond

// Runtime metrics read around a measured interval. The live heap is what
// the last GC found reachable: unlike HeapInuse it does not swing with
// where the next GC happens to fall, so its peak repeats from run to run.
const (
	liveHeap  = "/gc/heap/live:bytes"
	allocated = "/gc/heap/allocs:bytes"
	gcCycles  = "/gc/cycles/total:gc-cycles"
)

// measureUsage runs fn while sampling the live heap. It collects garbage
// first, so what set-up discarded does not count toward the peak.
func measureUsage(fn func()) usage {
	runtime.GC()
	before := []metrics.Sample{{Name: liveHeap}, {Name: allocated}, {Name: gcCycles}}
	metrics.Read(before)
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		live := []metrics.Sample{{Name: liveHeap}}
		peak := before[0].Value.Uint64()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
				metrics.Read(live)
				peak = max(peak, live[0].Value.Uint64())
			}
		}
	}()
	fn()
	close(stop)
	peak := <-done
	after := []metrics.Sample{{Name: liveHeap}, {Name: allocated}, {Name: gcCycles}}
	metrics.Read(after)
	return usage{
		heapPeak: max(peak, after[0].Value.Uint64()),
		alloc:    after[1].Value.Uint64() - before[1].Value.Uint64(),
		gcs:      after[2].Value.Uint64() - before[2].Value.Uint64(),
	}
}
