// Package engine is the concurrent solvability query engine behind
// `wfrepro serve`: it canonically hashes every query (task specs reuse the
// repository-wide canonical string encodings), content-addresses every
// answer — solvability verdicts, subdivision shapes, convergence answers,
// adversary replays — in an entry-bounded, cost-aware in-memory store (see
// Cache) with optional gob spill-to-disk, and deduplicates identical
// in-flight queries singleflight-style. Subdivision levels are built inside
// the query that needs them and never stored, and each query computes
// sequentially. N concurrent clients asking the same question cost one
// search.
package engine

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the latency
// histogram buckets; observations above the last bound land in +Inf.
var latencyBucketsMs = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// histogram is a fixed-bucket latency histogram (expvar-style: exported as
// plain JSON numbers, no external dependencies).
type histogram struct {
	counts []int64 // len(latencyBucketsMs)+1; last = +Inf
	count  int64
	sumMs  float64
}

func (h *histogram) observe(ms float64) {
	if h.counts == nil {
		h.counts = make([]int64, len(latencyBucketsMs)+1)
	}
	h.count++
	h.sumMs += ms
	for i, ub := range latencyBucketsMs {
		if ms <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(latencyBucketsMs)]++
}

// quantile estimates the q-quantile (0 < q < 1) from the fixed log-scale
// buckets, interpolating linearly within the bucket where the rank falls.
// Observations in the +Inf bucket report the last finite bound — a floor,
// which is the honest answer a fixed-bucket histogram can give.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 || h.counts == nil {
		return 0
	}
	target := q * float64(h.count)
	var cum int64
	lower := 0.0
	for i, ub := range latencyBucketsMs {
		cum += h.counts[i]
		if float64(cum) >= target {
			frac := 1.0
			if h.counts[i] > 0 {
				frac = (target - float64(cum-h.counts[i])) / float64(h.counts[i])
			}
			return lower + frac*(ub-lower)
		}
		lower = ub
	}
	return lower
}

func (h *histogram) snapshot() map[string]any {
	if h.counts == nil {
		h.counts = make([]int64, len(latencyBucketsMs)+1)
	}
	buckets := make(map[string]int64, len(h.counts))
	for i, ub := range latencyBucketsMs {
		buckets[formatBucket(ub)] = h.counts[i]
	}
	buckets["le_inf"] = h.counts[len(latencyBucketsMs)]
	return map[string]any{
		"count":   h.count,
		"sum_ms":  h.sumMs,
		"buckets": buckets,
		"p50_ms":  h.quantile(0.50),
		"p95_ms":  h.quantile(0.95),
		"p99_ms":  h.quantile(0.99),
	}
}

func formatBucket(ub float64) string {
	return "le_" + itoa(int64(ub)) + "ms"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Metrics holds the engine's expvar-style counters and latency histograms.
// All fields are safe for concurrent use; Snapshot returns a flat,
// JSON-marshalable view (map keys serialize sorted, so output is
// deterministic for a given state).
type Metrics struct {
	// Cache behavior, counted at query granularity: a hit means the whole
	// answer came from the store; a miss means this call computed it.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Store internals.
	CacheEvictions atomic.Int64
	CacheSpills    atomic.Int64
	CacheDiskHits  atomic.Int64
	// Spill files removed by the byte-budget sweep or on rehydrate.
	CacheSpillRemoved atomic.Int64
	// The spill directory as the cache tracks it without listing it:
	// CacheSpillBytes is an upper bound on its .gob bytes, exact right after
	// a listing; CacheSpillListings counts listings since start, the one at
	// construction included.
	CacheSpillBytes    atomic.Int64
	CacheSpillListings atomic.Int64
	// Spill-tier failure taxonomy (all best-effort paths — none of these
	// ever fails a query):
	//   WriteErrors — evictions whose spill could not land on disk;
	//   ReadErrors  — spill files that exist but could not be read;
	//   Corrupt     — files quarantined for checksum/decode failure;
	//   TmpSwept    — partial *.tmp files a listing swept (at startup, or
	//                 left by a failed write).
	CacheSpillWriteErrors atomic.Int64
	CacheSpillReadErrors  atomic.Int64
	CacheSpillCorrupt     atomic.Int64
	CacheSpillTmpSwept    atomic.Int64
	// Singleflight: queries that waited on an identical in-flight one.
	Deduped atomic.Int64
	// Queries abandoned mid-computation (client disconnect or deadline),
	// counted at whole-query granularity like CacheHits/CacheMisses.
	Canceled atomic.Int64
	// Gauges.
	InFlight   atomic.Int64
	QueueDepth atomic.Int64
	Rejected   atomic.Int64

	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*histogram
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]int64), hists: make(map[string]*histogram)}
}

// Inc bumps a named counter (e.g. per-endpoint request totals).
func (m *Metrics) Inc(name string) {
	m.mu.Lock()
	m.counters[name]++
	m.mu.Unlock()
}

// Add bumps a named counter by delta (e.g. the solver's per-level node and
// prune totals, which arrive in batches rather than one at a time).
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Observe records a latency sample under the named histogram.
func (m *Metrics) Observe(name string, d time.Duration) {
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &histogram{}
		m.hists[name] = h
	}
	h.observe(float64(d) / float64(time.Millisecond))
	m.mu.Unlock()
}

// Counter returns the current value of a named counter.
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// HistCount returns the observation count of a named histogram (0 when the
// histogram has never been observed). Tests use it to pin the metrics
// contract: exactly one observation per request, and canceled queries never
// landing in the success series.
func (m *Metrics) HistCount(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.count
	}
	return 0
}

// SpillFaults is the spill tier's total failure count — write errors, read
// errors, and quarantined corruptions. The serving layer's failure-rate
// breaker watches this sum: a burst of spill faults trips the engine into
// degraded mode before corruption can turn into latency or load amplification.
func (m *Metrics) SpillFaults() int64 {
	return m.CacheSpillWriteErrors.Load() + m.CacheSpillReadErrors.Load() + m.CacheSpillCorrupt.Load()
}

// MaxQuantile returns the largest q-quantile (in milliseconds) among the
// success histograms whose names start with prefix; "_error" histograms are
// skipped so failed-query latencies never inflate the estimate. The serving
// layer derives Retry-After hints from it (queue depth × recent p50).
func (m *Metrics) MaxQuantile(prefix string, q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max float64
	for name, h := range m.hists {
		if !strings.HasPrefix(name, prefix) || strings.HasSuffix(name, "_error") {
			continue
		}
		if v := h.quantile(q); v > max {
			max = v
		}
	}
	return max
}

// Snapshot returns all counters, gauges, and histograms as a flat map
// suitable for JSON encoding on /metrics.
func (m *Metrics) Snapshot() map[string]any {
	out := map[string]any{
		"cache_hits":               m.CacheHits.Load(),
		"cache_misses":             m.CacheMisses.Load(),
		"cache_evictions":          m.CacheEvictions.Load(),
		"cache_spills":             m.CacheSpills.Load(),
		"cache_disk_hits":          m.CacheDiskHits.Load(),
		"cache_spill_removed":      m.CacheSpillRemoved.Load(),
		"cache_spill_bytes":        m.CacheSpillBytes.Load(),
		"cache_spill_listings":     m.CacheSpillListings.Load(),
		"cache_spill_write_errors": m.CacheSpillWriteErrors.Load(),
		"cache_spill_read_errors":  m.CacheSpillReadErrors.Load(),
		"cache_spill_corrupt":      m.CacheSpillCorrupt.Load(),
		"cache_spill_tmp_swept":    m.CacheSpillTmpSwept.Load(),
		"deduped":                  m.Deduped.Load(),
		"canceled":                 m.Canceled.Load(),
		"in_flight":                m.InFlight.Load(),
		"queue_depth":              m.QueueDepth.Load(),
		"rejected":                 m.Rejected.Load(),
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out["counter_"+name] = m.counters[name]
	}
	for name, h := range m.hists {
		out["latency_"+name] = h.snapshot()
	}
	m.mu.Unlock()
	return out
}
