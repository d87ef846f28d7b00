package register

import (
	"sync"
	"testing"
)

// ScanWithStats is Scan, additionally reporting how many collects the scan
// used (for the wait-freedom bound ≤ n+2).
func (s *Snapshot[T]) ScanWithStats() ([]Entry[T], int) {
	return s.scan()
}

// ScanDoubleCollect is the ablation variant of Scan: it repeats double
// collects until two agree, WITHOUT the embedded-view borrowing that makes
// Scan wait-free. It is linearizable but only obstruction-free — under
// continuous writers it can run an unbounded number of collects (the
// "double collect until one succeeds" of the paper's §4 remark). maxCollects
// bounds the attempt; ok=false reports giving up. Kept to quantify what the
// Afek et al. mechanism buys; production code uses Scan.
func (s *Snapshot[T]) ScanDoubleCollect(maxCollects int) (view []Entry[T], collects int, ok bool) {
	n := len(s.cells)
	first := s.collect()
	collects = 1
	for collects < maxCollects {
		second := s.collect()
		collects++
		same := true
		for j := 0; j < n; j++ {
			if seqOf(first[j]) != seqOf(second[j]) {
				same = false
				break
			}
		}
		if same {
			out := make([]Entry[T], n)
			for j, c := range second {
				if c != nil {
					out[j] = Entry[T]{Val: c.val, Seq: c.seq, Present: true}
				}
			}
			return out, collects, true
		}
		first = second
	}
	return nil, collects, false
}

func TestScanDoubleCollectQuiescent(t *testing.T) {
	s := NewSnapshot[int](3)
	s.Update(0, 10)
	s.Update(2, 30)
	view, collects, ok := s.ScanDoubleCollect(8)
	if !ok {
		t.Fatal("quiescent double collect must succeed")
	}
	if collects != 2 {
		t.Fatalf("quiescent scan used %d collects, want 2", collects)
	}
	if !view[0].Present || view[0].Val != 10 || view[1].Present || view[2].Val != 30 {
		t.Fatalf("view = %+v", view)
	}
}

// TestScanDoubleCollectGivesUpUnderContention demonstrates the ablation's
// point: without the embedded-view mechanism the naive scan is only
// obstruction-free — a continuously moving writer starves it.
func TestScanDoubleCollectGivesUpUnderContention(t *testing.T) {
	s := NewSnapshot[int](2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := 0; ; u++ {
			select {
			case <-stop:
				return
			default:
				s.Update(0, u)
			}
		}
	}()
	gaveUp := false
	for trial := 0; trial < 200 && !gaveUp; trial++ {
		if _, _, ok := s.ScanDoubleCollect(3); !ok {
			gaveUp = true
		}
	}
	close(stop)
	wg.Wait()
	if !gaveUp {
		t.Skip("writer never interfered (single-core scheduling); nothing to observe")
	}
	// Meanwhile the wait-free scan always terminates within its bound.
	if _, collects := s.ScanWithStats(); collects > 4 {
		t.Fatalf("wait-free scan used %d collects, bound is 4", collects)
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---------------------

// BenchmarkScanAblation contrasts the wait-free Afek et al. scan with the
// naive unbounded double collect, both under adversarial writers. The naive
// scan frequently exhausts its collect budget; the wait-free one never
// exceeds n+2 collects.
func BenchmarkScanAblation(b *testing.B) {
	const n = 8
	run := func(b *testing.B, scan func(s *Snapshot[int]) int) {
		s := NewSnapshot[int](n)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n-1; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for u := 0; ; u++ {
					select {
					case <-stop:
						return
					default:
						s.Update(i, u)
					}
				}
			}(i)
		}
		b.ResetTimer()
		var collects int
		for i := 0; i < b.N; i++ {
			collects += scan(s)
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(collects)/float64(b.N), "collects/op")
	}
	b.Run("waitfree", func(b *testing.B) {
		run(b, func(s *Snapshot[int]) int {
			_, c := s.ScanWithStats()
			return c
		})
	})
	b.Run("doublecollect", func(b *testing.B) {
		run(b, func(s *Snapshot[int]) int {
			_, c, _ := s.ScanDoubleCollect(64)
			return c
		})
	})
}
