package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// RunApproxAgreement runs wait-free ε-approximate agreement directly on a
// ShotMemory — natively or through the Figure 2 emulation. This exercises
// the emulation with a protocol whose decisions depend on snapshot *values*
// (not just the full-information structure).
//
// The algorithm is the classic round-tagged one. Every process writes its
// whole history of (round, estimate) pairs, so no round's value is ever
// hidden by overwrites. At round r a process scans and looks at the highest
// round tag T visible:
//
//   - if T > r it adopts the (deterministically chosen) tag-T value and
//     jumps to round T;
//   - if T = r it moves to the midpoint of the visible tag-r values and
//     advances to round r+1.
//
// Because snapshot views are containment-ordered and histories only grow,
// the visible tag-r value sets of any two round-(r+1) computations are
// nested, so the tag-(r+1) interval is at most half the tag-r interval;
// adopted values are copies and add no spread. Hence
// target = ⌈log₂(spread/ε)⌉ rounds suffice, and every decided value carries
// a tag ≥ target, all within ε.
//
// crashAfter[i] ≥ 0 crashes process i after that many rounds.
//
// No production path runs it (tasks.RunApproxAgreement is the service's
// runtime), so it lives in a test file; core_test validates its outputs
// with tasks.ValidateApprox.
func RunApproxAgreement(mem ShotMemory, inputs []float64, eps float64, crashAfter []int) ([]float64, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("core: no inputs")
	}
	if eps <= 0 {
		return nil, fmt.Errorf("core: eps must be positive")
	}
	lo, hi := inputs[0], inputs[0]
	for _, x := range inputs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	target := 0
	if hi-lo > eps {
		target = int(math.Ceil(math.Log2((hi - lo) / eps)))
	}

	outputs := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outputs[i] = math.NaN()
			limit := -1
			if crashAfter != nil && i < len(crashAfter) && crashAfter[i] >= 0 {
				limit = crashAfter[i]
			}
			hist := map[int]float64{0: inputs[i]}
			x := inputs[i]
			r := 0
			for seq := 1; r < target; seq++ {
				if limit >= 0 && seq > limit {
					return // fail-stop
				}
				hist[r] = x
				if err := mem.Write(i, seq, encodeHistory(hist)); err != nil {
					errs[i] = err
					return
				}
				vals, seqs, err := mem.SnapshotRead(i, seq)
				if err != nil {
					errs[i] = err
					return
				}
				// Merge all visible histories.
				merged := make(map[int][]float64)
				maxTag := 0
				for p := range vals {
					if seqs[p] == 0 {
						continue
					}
					h, err := decodeHistory(vals[p])
					if err != nil {
						errs[i] = fmt.Errorf("core: P%d cell %d: %w", i, p, err)
						return
					}
					for tag, v := range h {
						merged[tag] = append(merged[tag], v)
						if tag > maxTag {
							maxTag = tag
						}
					}
				}
				if maxTag > r {
					// Adopt: jump to the frontier, taking a deterministic
					// representative of the tag-maxTag values.
					x = deterministicPick(merged[maxTag])
					r = maxTag
					continue
				}
				// maxTag == r (our own tag-r entry is visible): midpoint.
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, v := range merged[r] {
					mn = math.Min(mn, v)
					mx = math.Max(mx, v)
				}
				x = (mn + mx) / 2
				r++
			}
			outputs[i] = x
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outputs, nil
}

// deterministicPick returns the median-by-sort of the values so that all
// adopters of the same visible set pick the same representative.
func deterministicPick(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

func encodeHistory(h map[int]float64) string {
	tags := make([]int, 0, len(h))
	for t := range h {
		tags = append(tags, t)
	}
	sort.Ints(tags)
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = strconv.Itoa(t) + "=" + strconv.FormatFloat(h[t], 'g', -1, 64)
	}
	return strings.Join(parts, ";")
}

func decodeHistory(s string) (map[int]float64, error) {
	h := make(map[int]float64)
	if s == "" {
		return h, nil
	}
	for _, part := range strings.Split(s, ";") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("core: bad history entry %q", part)
		}
		tag, err := strconv.Atoi(part[:eq])
		if err != nil {
			return nil, fmt.Errorf("core: bad history tag %q: %w", part[:eq], err)
		}
		v, err := strconv.ParseFloat(part[eq+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad history value %q: %w", part[eq+1:], err)
		}
		h[tag] = v
	}
	return h, nil
}

func TestHistoryEncodingRoundTrip(t *testing.T) {
	h := map[int]float64{0: 0.5, 3: -1.25, 7: 1e-9}
	got, err := decodeHistory(encodeHistory(h))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(h) {
		t.Fatalf("round trip length %d, want %d", len(got), len(h))
	}
	for k, v := range h {
		if got[k] != v {
			t.Fatalf("h[%d] = %g, want %g", k, got[k], v)
		}
	}
	if _, err := decodeHistory("garbage"); err == nil {
		t.Error("garbage should fail to decode")
	}
	if h, err := decodeHistory(""); err != nil || len(h) != 0 {
		t.Error("empty history should decode to empty map")
	}
}
