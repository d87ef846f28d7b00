package topology

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"waitfree/internal/obs"
)

// SDS returns the standard chromatic subdivision of the sealed chromatic
// complex c.
//
// Each facet t of c is replaced by the one-shot immediate snapshot complex
// over t (Lemma 3.2): the new vertices are pairs (u, S) with u ∈ S ⊆ t, and
// the facets correspond to the ordered partitions (B1,…,Bm) of t — the facet
// of partition (B1,…,Bm) takes S(u) = B1 ∪ … ∪ Bj for u ∈ Bj. Vertices on a
// shared face of two facets have identical keys, so the per-facet
// subdivisions glue into a subdivision of c.
//
// The result is a subdivision whose Base is c's base (or c itself if c is
// not a subdivision), with carriers composed accordingly, so iterating SDS
// keeps carriers relative to the original complex.
//
// Background cannot be canceled and a nil filter rejects nothing, so SDS
// and SDSPow drop Subdivide's error, which cannot occur.
func SDS(c *Complex) *Complex {
	c, _ = Subdivide(context.Background(), c, 1, nil)
	return c
}

// SDSPow returns SDS^b(c); SDSPow(c, 0) is c itself.
func SDSPow(c *Complex, b int) *Complex {
	c, _ = Subdivide(context.Background(), c, b, nil)
	return c
}

// Subdivide returns R^b(c): b standard chromatic subdivisions of the sealed
// complex c, each level restricted to the facets keep accepts (see
// RestrictSDS) in the same step that built it, while the level's arena
// provenance — the ordered-partition block sizes — is live. With a nil keep
// it returns exactly SDS^b(c), and Subdivide(ctx, c, 0, keep) is c itself.
//
// It is the one subdivision step of the engine, the solver and the converge
// search. Each level emits one sds.subdivide span and checks ctx every
// sdsCheckInterval source facets; a canceled level is abandoned with an
// error wrapping ctx.Err().
//
// The construction runs on the arena representation: faces and vertices of
// each facet's one-shot IS subdivision are interned positionally within the
// facet and by integer identity across the level (no string keys; see
// sdsBuilder in arena.go). Vertex and facet order are identical to the
// historical string-keyed construction; string keys materialize lazily on
// first use.
func Subdivide(ctx context.Context, c *Complex, b int, keep FacetFilter) (*Complex, error) {
	for i := 0; i < b; i++ {
		next, err := sdsLevel(ctx, c)
		if err != nil {
			return nil, err
		}
		if c, err = RestrictSDS(next, keep); err != nil {
			return nil, fmt.Errorf("topology: restricted level %d: %w", i+1, err)
		}
	}
	return c, nil
}

// SDSParallelCtx is one level of Subdivide; workers is ignored.
//
// Deprecated: subdivision has one sequential builder. Use Subdivide.
func SDSParallelCtx(ctx context.Context, c *Complex, workers int) (*Complex, error) {
	return Subdivide(ctx, c, 1, nil)
}

// sdsCheckInterval is the cadence, in source facets, of the cancellation
// checkpoint inside a subdivision level.
const sdsCheckInterval = 64

// sdsLevel builds one unrestricted level, SDS(c).
func sdsLevel(ctx context.Context, c *Complex) (out *Complex, err error) {
	c.mustBeSealed("SDS")
	// Tracing: one sds.subdivide span per level, carrying the exact facet
	// and vertex counts of the construction (the numbers Lemma 3.3 pins
	// down — Σ over facets of CountOrderedPartitions(|facet|) new facets).
	// A no-op when the context carries no trace.
	ctx, span := obs.StartSpan(ctx, "sds.subdivide")
	span.SetInt("facets_in", int64(len(c.Facets())))
	defer func() {
		if err != nil {
			span.SetStr("error", "canceled")
		} else {
			span.SetInt("facets_out", int64(len(out.Facets())))
			span.SetInt("vertices_out", int64(out.NumVertices()))
		}
		span.Finish()
	}()
	b := newSDSBuilder(c)
	for i, t := range c.Facets() {
		if i%sdsCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("topology: subdivision canceled: %w", err)
			}
		}
		b.subdivide(t)
	}
	return b.finish(), nil
}

// sdsVertexKey canonically names the SDS vertex (u, S) using the keys of the
// underlying complex, so that SDS complexes built over equal complexes are
// equal.
func sdsVertexKey(c *Complex, u Vertex, s []Vertex) string {
	keys := make([]string, len(s))
	for i, w := range s {
		keys[i] = c.Key(w)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("S(")
	b.WriteString(c.Key(u))
	b.WriteString("|{")
	b.WriteString(strings.Join(keys, " "))
	b.WriteString("})")
	return b.String()
}

// ForEachOrderedPartition enumerates every ordered partition of {0,…,n−1}
// into non-empty blocks, calling fn with each. The blocks slice and its
// contents are reused between calls; fn must not retain them.
//
// The number of ordered partitions of an n-set is the n-th Fubini number:
// 1, 1, 3, 13, 75, 541, … — the facet counts of SDS(sⁿ⁻¹).
func ForEachOrderedPartition(n int, fn func(blocks [][]int)) {
	if n == 0 {
		return
	}
	full := (1 << n) - 1
	// The blocks of one partition hold n elements in all, so each block is
	// carved from elems at the offset where the blocks before it end.
	elems := make([]int, n)
	blocks := make([][]int, 0, n)
	var rec func(remaining, off int)
	rec = func(remaining, off int) {
		if remaining == 0 {
			fn(blocks)
			return
		}
		// Enumerate non-empty subsets of the remaining elements as the next
		// block. Iterating sub = (sub-1)&remaining visits each subset once.
		for sub := remaining; sub > 0; sub = (sub - 1) & remaining {
			end := off
			for i := 0; i < n; i++ {
				if sub&(1<<i) != 0 {
					elems[end] = i
					end++
				}
			}
			blocks = append(blocks, elems[off:end:end])
			rec(remaining&^sub, end)
			blocks = blocks[:len(blocks)-1]
		}
	}
	rec(full, 0)
}

// CountOrderedPartitions returns the n-th Fubini number, the number of
// ordered partitions of an n-element set. Fubini numbers grow super-
// exponentially (a(19) no longer fits in int64); rather than silently
// wrapping, it panics with a clear message on overflow. Callers that want
// to handle the condition use CountOrderedPartitionsChecked.
func CountOrderedPartitions(n int) int {
	v, err := CountOrderedPartitionsChecked(n)
	if err != nil {
		panic(err)
	}
	return v
}

// MaxOrderedPartitionsN is the largest n whose Fubini number fits in a
// 64-bit int: a(18) = 3,385,534,663,256,845,323 < 2^63 − 1 < a(19).
const MaxOrderedPartitionsN = 18

// CountOrderedPartitionsChecked is CountOrderedPartitions with explicit
// overflow detection: every intermediate product and sum is checked, and the
// first value that does not fit in int is reported as an error instead of a
// silently wrapped number. n is range-checked before anything is allocated —
// n arrives from cost estimates of untrusted keys, and the recurrence's
// table is n+1 ints long.
func CountOrderedPartitionsChecked(n int) (int, error) {
	if n < 0 || n > MaxOrderedPartitionsN {
		return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) out of range [0,%d]: overflows int", n, MaxOrderedPartitionsN)
	}
	// a(n) = Σ_{k=1..n} C(n,k) a(n−k), a(0)=1.
	a := make([]int, n+1)
	a[0] = 1
	for m := 1; m <= n; m++ {
		for k := 1; k <= m; k++ {
			b, err := binomialChecked(m, k)
			if err != nil {
				return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) overflows int at C(%d,%d): %w", n, m, k, err)
			}
			p, ok := mulNonNeg(b, a[m-k])
			if !ok {
				return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) overflows int at C(%d,%d)·a(%d)", n, m, k, m-k)
			}
			s, ok := addNonNeg(a[m], p)
			if !ok {
				return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) overflows int summing a(%d)", n, m)
			}
			a[m] = s
		}
	}
	return a[n], nil
}

func binomial(n, k int) int {
	r, err := binomialChecked(n, k)
	if err != nil {
		panic(err)
	}
	return r
}

// binomialChecked computes C(n,k) with overflow detection on every
// intermediate product (the running product r·(n−i) is always divisible by
// i+1, so checking the multiply suffices). The check is conservative: it
// reports overflow when an intermediate product exceeds int even if the
// final binomial would fit, which errs on the safe side.
func binomialChecked(n, k int) (int, error) {
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 0; i < k; i++ {
		p, ok := mulNonNeg(r, n-i)
		if !ok {
			return 0, fmt.Errorf("topology: binomial(%d,%d) overflows int", n, k)
		}
		r = p / (i + 1)
	}
	return r, nil
}

// mulNonNeg returns a·b and whether it fits in int, for a, b ≥ 0.
func mulNonNeg(a, b int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	r := a * b
	if r/a != b || r < 0 {
		return 0, false
	}
	return r, true
}

// addNonNeg returns a+b and whether it fits in int, for a, b ≥ 0.
func addNonNeg(a, b int) (int, bool) {
	r := a + b
	if r < 0 {
		return 0, false
	}
	return r, true
}
