// Package faultfs is a seeded, deterministic fault-injection layer for the
// engine's spill-to-disk tier — the storage-side sibling of internal/sched.
//
// The paper's emulation tolerates any schedule the adversary picks; this
// package lets tests pick the *storage* adversary the same way. The engine's
// cache talks to a small FS interface instead of calling os.* directly; the
// Faulty implementation wraps any FS and injects I/O errors, ENOSPC, torn
// writes (the file is silently truncated after N bytes), and bit-flip
// corruption (a payload bit silently inverted on write or read), each drawn
// from a schedule that is a pure function of a seed.
//
// # Determinism
//
// A Faulty precomputes its fault plan lazily from a private seeded PRNG:
// plan entry i is the fault (or non-fault) injected into the i-th filesystem
// operation, and is fully determined by (seed, rate, i) — never by wall
// clock, goroutine id, or map order. PlanString renders the plan
// byte-for-byte reproducibly, which is what makes a failing chaos run a
// regression test: re-run with the same -faultseed and the storage adversary
// replays the identical schedule, exactly as internal/sched replays a
// scheduling adversary from (adversary, seed, crash vector).
//
// Which *operation* meets which plan entry depends on the interleaving of
// the calling goroutines (operations take plan entries in arrival order, under
// a mutex), so concurrent soaks see schedule-dependent fault placement over a
// deterministic fault sequence — the same contract sched gives concurrent
// emulations.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// FS is the filesystem surface the spill tier uses. It is the smallest
// interface covering every os.* call the cache makes, so a fault injector
// (or an in-memory fake) can stand in for the disk wholesale.
type FS interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the pass-through production implementation.
type OS struct{}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements FS.
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Kind enumerates the injectable faults.
type Kind int

// Fault kinds. Not every kind applies to every operation: a plan entry whose
// kind the operation cannot express (e.g. a torn write scheduled onto a
// ReadFile) injects nothing, so the plan stays deterministic while the
// injection adapts to whatever operation arrives.
const (
	KindNone    Kind = iota
	KindEIO          // the operation fails with an injected I/O error
	KindENOSPC       // WriteFile/MkdirAll fail with "no space left on device"
	KindTorn         // WriteFile silently persists only a prefix of the data
	KindBitFlip      // one payload bit silently inverted (write or read)
)

// String names the kind (used by PlanString, pinned in tests).
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindEIO:
		return "eio"
	case KindENOSPC:
		return "enospc"
	case KindTorn:
		return "torn"
	case KindBitFlip:
		return "bitflip"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Injected fault sentinels. ErrInjected wraps both, so callers can
// errors.Is(err, ErrInjected) to distinguish scheduled faults from real disk
// trouble in tests.
var (
	ErrInjected = errors.New("faultfs: injected fault")

	// ErrIO is the injected generic I/O failure.
	ErrIO = fmt.Errorf("%w: input/output error", ErrInjected)

	// ErrNoSpace is the injected disk-full failure; it also matches
	// syscall.ENOSPC via errors.Is.
	ErrNoSpace = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
)

// planEntry is one precomputed schedule slot: the fault kind for the i-th
// operation plus a draw of entropy that parameterizes it (torn-write cut
// point, bit index to flip).
type planEntry struct {
	kind Kind
	arg  int64
}

// Faulty injects scheduled faults into an inner FS.
type Faulty struct {
	inner FS
	seed  int64
	rate  float64

	mu   sync.Mutex
	rng  *rand.Rand
	plan []planEntry
	next int

	enabled  atomic.Bool
	injected atomic.Int64
}

// DefaultRate is the fault probability per operation when the caller passes
// rate <= 0 — high enough that a short soak meets every fault kind, low
// enough that most operations succeed and the cache still makes progress.
const DefaultRate = 0.1

// New wraps inner with a fault injector whose schedule is a pure function of
// seed. rate is the per-operation fault probability (<= 0 = DefaultRate,
// values above 1 clamp to 1). Injection starts enabled.
func New(inner FS, seed int64, rate float64) *Faulty {
	if inner == nil {
		inner = OS{}
	}
	if rate <= 0 {
		rate = DefaultRate
	}
	if rate > 1 {
		rate = 1
	}
	f := &Faulty{inner: inner, seed: seed, rate: rate, rng: rand.New(rand.NewSource(seed))}
	f.enabled.Store(true)
	return f
}

// Injected returns how many faults have actually been injected so far.
func (f *Faulty) Injected() int64 { return f.injected.Load() }

// SetEnabled turns injection on or off without consuming plan entries while
// off — the chaos soak's "storage heals" phase. Operations always pass
// through to the inner FS.
func (f *Faulty) SetEnabled(on bool) { f.enabled.Store(on) }

// entryLocked extends the plan through index i and returns plan[i]. Caller
// holds f.mu. The PRNG is consumed only here, in index order, with a fixed
// number of draws per entry — that is the whole determinism argument.
func (f *Faulty) entryLocked(i int) planEntry {
	for len(f.plan) <= i {
		p := f.rng.Float64()
		kind := Kind(1 + f.rng.Intn(4)) // KindEIO..KindBitFlip, drawn even when unused
		arg := f.rng.Int63()
		if p >= f.rate {
			kind = KindNone
		}
		f.plan = append(f.plan, planEntry{kind: kind, arg: arg})
	}
	return f.plan[i]
}

// take consumes the next plan entry. When injection is disabled the entry is
// not consumed, so a heal phase does not shift the schedule for later ops.
func (f *Faulty) take() planEntry {
	if !f.enabled.Load() {
		return planEntry{kind: KindNone}
	}
	f.mu.Lock()
	e := f.entryLocked(f.next)
	f.next++
	f.mu.Unlock()
	return e
}

// PlanString renders the first n plan entries, one per line
// ("op=3 kind=torn arg=1234..."), without consuming them. Two Faulty values
// with equal (seed, rate) render byte-identical plans — the reproducibility
// contract pinned in TestPlanDeterminism.
func (f *Faulty) PlanString(n int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "faultfs plan seed=%d rate=%g\n", f.seed, f.rate)
	for i := 0; i < n; i++ {
		e := f.entryLocked(i)
		fmt.Fprintf(&b, "op=%d kind=%s arg=%d\n", i, e.kind, e.arg)
	}
	return b.String()
}

func (f *Faulty) inject() {
	f.injected.Add(1)
}

// ReadFile implements FS. KindEIO fails the read; KindBitFlip silently
// inverts one bit of the returned data (detected, if the payload is
// checksummed, by the caller).
func (f *Faulty) ReadFile(name string) ([]byte, error) {
	e := f.take()
	switch e.kind {
	case KindEIO:
		f.inject()
		return nil, fmt.Errorf("read %s: %w", name, ErrIO)
	case KindBitFlip:
		data, err := f.inner.ReadFile(name)
		if err != nil || len(data) == 0 {
			return data, err
		}
		f.inject()
		out := append([]byte(nil), data...)
		bit := e.arg % int64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	default:
		return f.inner.ReadFile(name)
	}
}

// WriteFile implements FS. KindEIO and KindENOSPC fail without writing;
// KindTorn persists only a prefix and reports success (a crash between write
// and fsync); KindBitFlip persists the full length with one bit inverted.
func (f *Faulty) WriteFile(name string, data []byte, perm os.FileMode) error {
	e := f.take()
	switch e.kind {
	case KindEIO:
		f.inject()
		return fmt.Errorf("write %s: %w", name, ErrIO)
	case KindENOSPC:
		f.inject()
		return fmt.Errorf("write %s: %w", name, ErrNoSpace)
	case KindTorn:
		if len(data) == 0 {
			return f.inner.WriteFile(name, data, perm)
		}
		f.inject()
		cut := int(e.arg % int64(len(data)))
		return f.inner.WriteFile(name, data[:cut], perm)
	case KindBitFlip:
		if len(data) == 0 {
			return f.inner.WriteFile(name, data, perm)
		}
		f.inject()
		out := append([]byte(nil), data...)
		bit := e.arg % int64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		return f.inner.WriteFile(name, out, perm)
	default:
		return f.inner.WriteFile(name, data, perm)
	}
}

// Rename implements FS; KindEIO fails it.
func (f *Faulty) Rename(oldpath, newpath string) error {
	if e := f.take(); e.kind == KindEIO {
		f.inject()
		return fmt.Errorf("rename %s: %w", oldpath, ErrIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS; KindEIO fails it.
func (f *Faulty) Remove(name string) error {
	if e := f.take(); e.kind == KindEIO {
		f.inject()
		return fmt.Errorf("remove %s: %w", name, ErrIO)
	}
	return f.inner.Remove(name)
}

// ReadDir implements FS; KindEIO fails it.
func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) {
	if e := f.take(); e.kind == KindEIO {
		f.inject()
		return nil, fmt.Errorf("readdir %s: %w", name, ErrIO)
	}
	return f.inner.ReadDir(name)
}

// MkdirAll implements FS; KindEIO and KindENOSPC fail it.
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	switch e := f.take(); e.kind {
	case KindEIO:
		f.inject()
		return fmt.Errorf("mkdir %s: %w", path, ErrIO)
	case KindENOSPC:
		f.inject()
		return fmt.Errorf("mkdir %s: %w", path, ErrNoSpace)
	default:
		return f.inner.MkdirAll(path, perm)
	}
}
