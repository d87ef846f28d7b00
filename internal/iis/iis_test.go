package iis

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"waitfree/internal/immediate"
)

func TestAccessDiscipline(t *testing.T) {
	m := NewMemory[int](2)
	if _, err := m.WriteRead(0, 1, 5); err == nil {
		t.Fatal("skipping round 0 should fail")
	}
	if _, err := m.WriteRead(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteRead(0, 0, 5); err == nil {
		t.Fatal("revisiting round 0 should fail")
	}
	if _, err := m.WriteRead(0, 1, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteRead(3, 0, 0); err == nil {
		t.Fatal("out-of-range process should fail")
	}
	if got := m.NextRound(0); got != 2 {
		t.Fatalf("NextRound(0) = %d, want 2", got)
	}
	if got := m.Rounds(); got != 2 {
		t.Fatalf("Rounds() = %d, want 2", got)
	}
}

func TestProcessesAtDifferentRounds(t *testing.T) {
	// A fast process may run ahead: process 0 does 3 rounds solo, then
	// process 1 starts at M0 — each memory's views must still satisfy the IS
	// properties per memory.
	m := NewMemory[string](2)
	for r := 0; r < 3; r++ {
		v, err := m.WriteRead(0, r, "fast")
		if err != nil {
			t.Fatal(err)
		}
		if v.Size() != 1 {
			t.Fatalf("round %d: fast process saw %d values, want 1", r, v.Size())
		}
	}
	v, err := m.WriteRead(1, 0, "slow")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Contains(0) || !v.Contains(1) {
		t.Fatalf("slow process at M0 should see both inputs, got %+v", v)
	}
}

func TestConcurrentRoundsSatisfyISProperties(t *testing.T) {
	const (
		n      = 4
		rounds = 5
	)
	for trial := 0; trial < 20; trial++ {
		m := NewMemory[int](n)
		views := make([][]immediate.View[int], rounds)
		for r := range views {
			views[r] = make([]immediate.View[int], n)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					v, err := m.WriteRead(i, r, i*100+r)
					if err != nil {
						t.Error(err)
						return
					}
					views[r][i] = v
				}
			}(i)
		}
		wg.Wait()
		for r := 0; r < rounds; r++ {
			if err := immediate.CheckProperties(views[r]); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, r, err)
			}
		}
	}
}

// TestQuickRandomCrashRounds: for random per-process crash rounds, each
// memory's views among finishers still satisfy the IS properties.
func TestQuickRandomCrashRounds(t *testing.T) {
	f := func(seed int64) bool {
		const n, rounds = 3, 4
		rng := rand.New(rand.NewSource(seed))
		stop := make([]int, n)
		for i := range stop {
			stop[i] = rng.Intn(rounds + 1) // crash after 0..rounds rounds
		}
		stop[rng.Intn(n)] = rounds // at least one survivor
		m := NewMemory[int](n)
		views := make([][]immediate.View[int], rounds)
		for r := range views {
			views[r] = make([]immediate.View[int], n)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < stop[i]; r++ {
					v, err := m.WriteRead(i, r, i)
					if err != nil {
						t.Error(err)
						return
					}
					views[r][i] = v
				}
			}(i)
		}
		wg.Wait()
		for r := 0; r < rounds; r++ {
			if err := immediate.CheckProperties(views[r]); err != nil {
				t.Logf("seed %d round %d: %v", seed, r, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCrashedProcessNeverBlocksOthers(t *testing.T) {
	// Process 1 stops after round 0 ("crash"); processes 0 and 2 must
	// complete many further rounds.
	m := NewMemory[int](3)
	if _, err := m.WriteRead(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, i := range []int{0, 2} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				if _, err := m.WriteRead(i, r, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// NextRound returns the next memory index process proc will access.
func (m *Memory[T]) NextRound(proc int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next[proc]
}

// Rounds returns how many memories have been materialized so far.
func (m *Memory[T]) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ms)
}
