package register

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Register is a single-writer multi-reader atomic register. The zero value
// is an empty (unwritten) register. Only one goroutine may call Write.
type Register[T any] struct {
	p atomic.Pointer[T]
}

// Write stores v. Only the owning writer may call Write.
func (r *Register[T]) Write(v T) {
	r.p.Store(&v)
}

// Read returns the last written value, or ok=false if never written.
func (r *Register[T]) Read() (v T, ok bool) {
	p := r.p.Load()
	if p == nil {
		return v, false
	}
	return *p, true
}

// SeqVector extracts the per-component sequence numbers of a view. Two
// atomic snapshot views are always comparable under componentwise ≤ of their
// sequence vectors; tests use this to validate linearizability.
func SeqVector[T any](view []Entry[T]) []uint64 {
	out := make([]uint64, len(view))
	for i, e := range view {
		out[i] = e.Seq
	}
	return out
}

// CompareSeqVectors returns -1, 0, or +1 when a ≤ b, a = b, or a ≥ b
// componentwise, and ok=false if the vectors are incomparable (which would
// violate snapshot atomicity).
func CompareSeqVectors(a, b []uint64) (cmp int, ok bool) {
	le, ge := true, true
	for i := range a {
		if a[i] < b[i] {
			ge = false
		}
		if a[i] > b[i] {
			le = false
		}
	}
	switch {
	case le && ge:
		return 0, true
	case le:
		return -1, true
	case ge:
		return 1, true
	default:
		return 0, false
	}
}

func TestRegisterBasics(t *testing.T) {
	var r Register[int]
	if _, ok := r.Read(); ok {
		t.Fatal("unwritten register reported present")
	}
	r.Write(7)
	if v, ok := r.Read(); !ok || v != 7 {
		t.Fatalf("Read = (%d, %v), want (7, true)", v, ok)
	}
	r.Write(9)
	if v, _ := r.Read(); v != 9 {
		t.Fatalf("Read = %d, want 9", v)
	}
}

func TestRegisterConcurrentReaders(t *testing.T) {
	var r Register[int]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := r.Read(); ok {
					if v < last {
						t.Errorf("register went backwards: %d after %d", v, last)
						return
					}
					last = v
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		r.Write(i)
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotSequential(t *testing.T) {
	s := NewSnapshot[string](3)
	view := s.Scan()
	for i, e := range view {
		if e.Present {
			t.Fatalf("component %d present before any update", i)
		}
	}
	s.Update(0, "a")
	s.Update(2, "c")
	view = s.Scan()
	if !view[0].Present || view[0].Val != "a" || view[0].Seq != 1 {
		t.Errorf("component 0 = %+v", view[0])
	}
	if view[1].Present {
		t.Errorf("component 1 should be absent")
	}
	if !view[2].Present || view[2].Val != "c" {
		t.Errorf("component 2 = %+v", view[2])
	}
	s.Update(0, "a2")
	view = s.Scan()
	if view[0].Val != "a2" || view[0].Seq != 2 {
		t.Errorf("component 0 after second update = %+v", view[0])
	}
}

func TestSnapshotPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSnapshot(0) should panic")
		}
	}()
	NewSnapshot[int](0)
}

// TestSnapshotViewsTotallyOrdered is the core atomicity property: the
// sequence vectors of all scans, across all processes, must be pairwise
// comparable (a total order witnesses the linearization).
func TestSnapshotViewsTotallyOrdered(t *testing.T) {
	const (
		n       = 4
		updates = 200
		scans   = 200
	)
	s := NewSnapshot[int](n)
	var mu sync.Mutex
	var vectors [][]uint64

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for u := 0; u < updates; u++ {
				s.Update(i, u)
				if u%8 == 0 {
					v := SeqVector(s.Scan())
					mu.Lock()
					vectors = append(vectors, v)
					mu.Unlock()
				}
			}
		}(i)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < scans; k++ {
				v := SeqVector(s.Scan())
				mu.Lock()
				vectors = append(vectors, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for i := 0; i < len(vectors); i++ {
		for j := i + 1; j < len(vectors); j++ {
			if _, ok := CompareSeqVectors(vectors[i], vectors[j]); !ok {
				t.Fatalf("incomparable views %v and %v", vectors[i], vectors[j])
			}
		}
	}
}

// TestSnapshotRegularity: a scan that starts after an update completes must
// observe that update (or a later one).
func TestSnapshotRegularity(t *testing.T) {
	const n = 3
	s := NewSnapshot[int](n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer 0 bumps its component; after each Update it scans and the scan
	// must reflect its own completed update (read-your-writes through Scan).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := 1; u <= 500; u++ {
			s.Update(0, u)
			view := s.Scan()
			if view[0].Seq < uint64(u) {
				t.Errorf("scan after update %d saw seq %d", u, view[0].Seq)
				return
			}
		}
		close(stop)
	}()
	// Noise writers.
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := 0
			for {
				select {
				case <-stop:
					return
				default:
					s.Update(i, u)
					u++
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSnapshotPerProcessMonotone: successive scans by one process never go
// backwards.
func TestSnapshotPerProcessMonotone(t *testing.T) {
	const n = 3
	s := NewSnapshot[int](n)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for u := 0; u < 300; u++ {
				s.Update(i, u)
			}
		}(i)
	}
	go func() {
		defer close(done)
		var prev []uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := SeqVector(s.Scan())
			if prev != nil {
				cmp, ok := CompareSeqVectors(prev, cur)
				if !ok || cmp > 0 {
					t.Errorf("scan went backwards: %v then %v", prev, cur)
					return
				}
			}
			prev = cur
		}
	}()
	writers.Wait()
	close(stop)
	<-done
}

// TestScanCollectBound audits wait-freedom: a scan uses at most n+2
// collects (Afek et al.).
func TestScanCollectBound(t *testing.T) {
	const n = 4
	s := NewSnapshot[int](n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := 0
			for {
				select {
				case <-stop:
					return
				default:
					s.Update(i, u)
					u++
				}
			}
		}(i)
	}
	for k := 0; k < 200; k++ {
		_, collects := s.ScanWithStats()
		if collects > n+2 {
			t.Fatalf("scan used %d collects, bound is %d", collects, n+2)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotStructValues: the snapshot is generic; struct values round
// trip unchanged.
func TestSnapshotStructValues(t *testing.T) {
	type payload struct {
		A string
		B [2]int
	}
	s := NewSnapshot[payload](2)
	want := payload{A: "x", B: [2]int{4, 5}}
	s.Update(1, want)
	view := s.Scan()
	if !view[1].Present || view[1].Val != want {
		t.Fatalf("view[1] = %+v", view[1])
	}
}

func TestCompareSeqVectors(t *testing.T) {
	cases := []struct {
		a, b []uint64
		cmp  int
		ok   bool
	}{
		{[]uint64{1, 2}, []uint64{1, 2}, 0, true},
		{[]uint64{1, 2}, []uint64{2, 2}, -1, true},
		{[]uint64{3, 2}, []uint64{2, 2}, 1, true},
		{[]uint64{1, 3}, []uint64{2, 2}, 0, false},
	}
	for _, tc := range cases {
		cmp, ok := CompareSeqVectors(tc.a, tc.b)
		if ok != tc.ok || (ok && cmp != tc.cmp) {
			t.Errorf("CompareSeqVectors(%v, %v) = (%d, %v), want (%d, %v)",
				tc.a, tc.b, cmp, ok, tc.cmp, tc.ok)
		}
	}
}

// TestSnapshotQuickSequentialSemantics: against a single-threaded reference,
// scans must equal the last-written values exactly.
func TestSnapshotQuickSequentialSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 3
		s := NewSnapshot[uint16](n)
		ref := make([]Entry[uint16], n)
		for _, op := range ops {
			i := int(op) % n
			s.Update(i, op)
			ref[i] = Entry[uint16]{Val: op, Seq: ref[i].Seq + 1, Present: true}
			view := s.Scan()
			for j := 0; j < n; j++ {
				if view[j] != ref[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
