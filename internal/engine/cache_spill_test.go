package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"waitfree/internal/faultfs"
)

// spillDirBytes sums the sizes of the .gob files in dir.
func spillDirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".gob") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestSpillRehydrateRemovesFile pins the accretion fix: rehydrating an
// evicted entry deletes its gob, so evict/rehydrate cycles do not leave one
// file per generation behind.
func TestSpillRehydrateRemovesFile(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	c := NewCache(2, dir, 0, nil, m)
	c.registerCodec("cx",
		func(v any) ([]byte, error) { return gobEncode(v.(*ComplexResponse)) },
		func(data []byte) (any, error) { var r ComplexResponse; err := gobDecode(data, &r); return &r, err })
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("cx:n=%d", i), &ComplexResponse{N: i})
	}
	path := c.spillPath("cx:n=0")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("evicted entry should have a spill file: %v", err)
	}
	if _, ok := c.Get("cx:n=0"); !ok {
		t.Fatal("evicted entry should rehydrate")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rehydrated entry's gob should be removed, stat: %v", err)
	}
	if m.CacheSpillRemoved.Load() == 0 {
		t.Fatal("rehydrate should count under cache_spill_removed")
	}
}

// TestSpillByteBudgetSweep pins the disk bound: with a small byte budget the
// spill directory stays within it no matter how many entries churn through,
// with the oldest files swept first.
func TestSpillByteBudgetSweep(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	const budget = 4096
	c := NewCache(1, dir, budget, nil, m)
	c.registerCodec("cx",
		func(v any) ([]byte, error) { return gobEncode(v.(*ComplexResponse)) },
		func(data []byte) (any, error) { var r ComplexResponse; err := gobDecode(data, &r); return &r, err })

	// Each entry gobs to ~2KB, so an unswept directory would grow to ~40KB.
	fv := make([]int, 1000)
	for i := range fv {
		fv[i] = i
	}
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("cx:big=%d", i), &ComplexResponse{N: i, FVector: fv})
	}

	if got := spillDirBytes(t, dir); got > budget {
		t.Fatalf("spill dir holds %d bytes, budget is %d", got, budget)
	}
	if m.CacheSpillRemoved.Load() == 0 {
		t.Fatal("expected the sweep to remove over-budget files")
	}
	// No stray temp files left behind either.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

// gateFS holds one call at a gate until release is closed: a WriteFile of
// writePath before it writes, or a Remove of removePath after it removes.
// entered is closed when the call reaches the gate.
type gateFS struct {
	faultfs.OS
	writePath, removePath string
	entered, release      chan struct{}
	once                  sync.Once
}

func newGateFS() *gateFS {
	return &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) wait() {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

func (g *gateFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if name == g.writePath {
		g.wait()
	}
	return g.OS.WriteFile(name, data, perm)
}

func (g *gateFS) Remove(name string) error {
	err := g.OS.Remove(name)
	if name == g.removePath {
		g.wait()
	}
	return err
}

// inWindow runs move in the background until it reaches g's gate, checks
// that key is a memory hit while move is held there, then lets move finish.
func inWindow(t *testing.T, c *Cache, g *gateFS, key string, move func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		move()
	}()
	<-g.entered
	v, tier, ok := c.GetTier(key)
	close(g.release)
	<-done
	if !ok || tier != TierMemory || v.(*ComplexResponse).N != 1 {
		t.Fatalf("%s while it moves between tiers: %+v, tier %q, hit %v; want a memory hit", key, v, tier, ok)
	}
}

// TestEvictedEntryVisibleUntilSpilled: between an eviction and the moment
// its spill lands, the entry is in neither tier's files — a lookup there
// must still hit, not recompute.
func TestEvictedEntryVisibleUntilSpilled(t *testing.T) {
	dir := t.TempDir()
	g := newGateFS()
	c := newSpillCache(t, 1, dir, g, NewMetrics())
	c.Put("cx:a", &ComplexResponse{N: 1})
	g.writePath = c.spillPath("cx:a") + ".tmp"
	inWindow(t, c, g, "cx:a", func() { c.Put("cx:b", &ComplexResponse{N: 2}) })
	if _, err := os.Stat(c.spillPath("cx:a")); err != nil {
		t.Fatalf("the held spill should land once released: %v", err)
	}
}

// TestRehydratedEntryVisibleWhileFileRemoved: a rehydrate that has removed
// the spill file must already have put the value back in memory.
func TestRehydratedEntryVisibleWhileFileRemoved(t *testing.T) {
	dir := t.TempDir()
	g := newGateFS()
	c := newSpillCache(t, 1, dir, g, NewMetrics())
	c.Put("cx:a", &ComplexResponse{N: 1})
	c.Put("cx:b", &ComplexResponse{N: 2})
	g.removePath = c.spillPath("cx:a")
	inWindow(t, c, g, "cx:a", func() {
		if _, tier, ok := c.GetTier("cx:a"); !ok || tier != TierDisk {
			t.Errorf("cx:a should rehydrate from disk, got tier %q, hit %v", tier, ok)
		}
	})
}

// listingFS counts the ReadDir calls that reach an inner FS, and those that
// fail.
type listingFS struct {
	faultfs.FS
	calls, failed atomic.Int64
}

func (f *listingFS) ReadDir(name string) ([]os.DirEntry, error) {
	entries, err := f.FS.ReadDir(name)
	f.calls.Add(1)
	if err != nil {
		f.failed.Add(1)
	}
	return entries, err
}

// withCxCodec registers the "cx" spill codec on c.
func withCxCodec(c *Cache) *Cache {
	c.registerCodec("cx",
		func(v any) ([]byte, error) { return gobEncode(v.(*ComplexResponse)) },
		func(data []byte) (any, error) { var r ComplexResponse; err := gobDecode(data, &r); return &r, err })
	return c
}

// sizedValue is a spillable value whose spill file is a few hundred bytes.
func sizedValue(i int) *ComplexResponse {
	fv := make([]int, 64)
	for j := range fv {
		fv[j] = 1000 + j
	}
	return &ComplexResponse{N: i, FVector: fv}
}

// sealedLen is the size of v's spill file.
func sealedLen(t *testing.T, v *ComplexResponse) int64 {
	t.Helper()
	data, err := gobEncode(v)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(sealSpill(data)))
}

// TestSpillMetricsTrackTheDirectory: spills under the budget list nothing
// after construction, and /metrics reports the directory's bytes exactly.
func TestSpillMetricsTrackTheDirectory(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	fs := &listingFS{FS: faultfs.OS{}}
	c := newSpillCache(t, 2, dir, fs, m)
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("cx:n=%d", i), sizedValue(i))
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.Get(fmt.Sprintf("cx:n=%d", i)); !ok {
			t.Fatalf("cx:n=%d should rehydrate", i)
		}
	}
	snap := m.Snapshot()
	if got := snap["cache_spill_listings"]; got != int64(1) {
		t.Errorf("cache_spill_listings = %v, want 1 (construction only)", got)
	}
	if got := fs.calls.Load(); got != 1 {
		t.Errorf("%d ReadDir calls, want 1: a spill under budget must not list", got)
	}
	if got, want := snap["cache_spill_bytes"], spillDirBytes(t, dir); got != want {
		t.Errorf("cache_spill_bytes = %v, directory holds %d", got, want)
	}
	if m.CacheSpills.Load() < 18 || m.CacheSpillRemoved.Load() < 6 {
		t.Fatalf("spills %d, removals %d: the run did not exercise the tier",
			m.CacheSpills.Load(), m.CacheSpillRemoved.Load())
	}
}

// TestSpillCountBoundsTheDirectory is the accounting property under the
// storage adversary (torn writes, ENOSPC, failing removes and listings):
// after every Put or Get the byte count is at least the directory's .gob
// bytes, and after every spill whose listing did not fail the directory is
// within its budget.
func TestSpillCountBoundsTheDirectory(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			m := NewMetrics()
			faulty := faultfs.New(faultfs.OS{}, seed, 0.3)
			fs := &listingFS{FS: faulty}
			budget := 8 * sealedLen(t, sizedValue(0))
			c := withCxCodec(NewCache(2, dir, budget, fs, m))
			for round := 0; round < 40; round++ {
				for i := 0; i < 16; i++ {
					key := fmt.Sprintf("cx:val=%d", i)
					spills, failed := m.CacheSpills.Load(), fs.failed.Load()
					if v, ok := c.Get(key); ok {
						if got := v.(*ComplexResponse).N; got != i {
							t.Fatalf("round %d: %q served %d, want %d", round, key, got, i)
						}
					} else {
						c.Put(key, sizedValue(i))
					}
					onDisk := spillDirBytes(t, dir)
					if count := m.CacheSpillBytes.Load(); count < onDisk {
						t.Fatalf("round %d, %q: byte count %d under the directory's %d", round, key, count, onDisk)
					}
					if m.CacheSpills.Load() > spills && fs.failed.Load() == failed && onDisk > budget {
						t.Fatalf("round %d, %q: directory holds %d bytes after a spill, budget %d", round, key, onDisk, budget)
					}
				}
			}
			if faulty.Injected() == 0 || m.CacheSpillRemoved.Load() == 0 || fs.calls.Load() < 3 {
				t.Fatalf("faults %d, removals %d, listings %d: the run did not reach the budget under faults",
					faulty.Injected(), m.CacheSpillRemoved.Load(), fs.calls.Load())
			}
		})
	}
}

// TestSpillRestartAdoptsDirectory: a cache started on a directory another
// left behind counts its files, serves them, and trims them at once when
// they exceed its budget.
func TestSpillRestartAdoptsDirectory(t *testing.T) {
	dir := t.TempDir()
	first := newSpillCache(t, 1, dir, nil, NewMetrics())
	for i := 0; i < 12; i++ {
		first.Put(fmt.Sprintf("cx:n=%d", i), sizedValue(i))
	}
	onDisk := spillDirBytes(t, dir)

	m := NewMetrics()
	second := newSpillCache(t, 1, dir, nil, m)
	if got := m.CacheSpillBytes.Load(); got != onDisk {
		t.Fatalf("restarted cache counts %d bytes, directory holds %d", got, onDisk)
	}
	if v, ok := second.Get("cx:n=0"); !ok || v.(*ComplexResponse).N != 0 {
		t.Fatalf("restarted cache should serve the first one's spill: %+v, %v", v, ok)
	}
	if got, want := m.CacheSpillBytes.Load(), spillDirBytes(t, dir); got != want {
		t.Fatalf("after a rehydrate the count is %d, directory holds %d", got, want)
	}

	m = NewMetrics()
	budget := spillDirBytes(t, dir) / 2
	NewCache(1, dir, budget, nil, m)
	onDisk = spillDirBytes(t, dir)
	if onDisk > budget-budget/8 {
		t.Fatalf("a cache with budget %d left %d bytes; construction should trim to 7/8", budget, onDisk)
	}
	if got := m.CacheSpillBytes.Load(); got != onDisk {
		t.Fatalf("after trimming, the count is %d, directory holds %d", got, onDisk)
	}
	if m.CacheSpillListings.Load() != 1 || m.CacheSpillRemoved.Load() == 0 {
		t.Fatalf("listings %d, removals %d: want one listing that removed files",
			m.CacheSpillListings.Load(), m.CacheSpillRemoved.Load())
	}
}

// TestSpillListsOncePerEighthOfBudget: spills into a directory at its budget
// list it once per budget/8 bytes spilled, not once per spill.
func TestSpillListsOncePerEighthOfBudget(t *testing.T) {
	dir := t.TempDir()
	const budget = 64 << 10
	size := sealedLen(t, sizedValue(1000))
	fill := sealSpill(make([]byte, size-spillHeaderLen))
	for i := 0; int64(i+1)*size <= budget; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cx-fill%03d.gob", i)), fill, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMetrics()
	fs := &listingFS{FS: faultfs.OS{}}
	c := withCxCodec(NewCache(1, dir, budget, fs, m))
	c.Put("cx:n=0", sizedValue(0))
	const spills = 100
	before := fs.calls.Load()
	for i := 1; i <= spills; i++ {
		c.Put(fmt.Sprintf("cx:n=%d", i), sizedValue(i))
	}
	if m.CacheSpills.Load() != spills {
		t.Fatalf("%d spills, want %d", m.CacheSpills.Load(), spills)
	}
	listings := fs.calls.Load() - before
	bound := (spills*size+budget/8-1)/(budget/8) + 1
	if listings > bound {
		t.Fatalf("%d spills of %d bytes listed the directory %d times, want at most %d", spills, size, listings, bound)
	}
	onDisk := spillDirBytes(t, dir)
	if onDisk > budget || m.CacheSpillBytes.Load() != onDisk {
		t.Fatalf("directory holds %d bytes (budget %d), count %d", onDisk, budget, m.CacheSpillBytes.Load())
	}
}
