package engine

import (
	"cmp"
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"waitfree/internal/faultfs"
)

// hashString is the engine's content address: hex SHA-256 of a canonical
// encoding. Equal canonical encodings hash equal; distinct encodings
// collide with cryptographic improbability.
func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// cacheCodec (de)serializes one kind of cached artifact for spill-to-disk.
// Kinds are addressed by the key prefix up to the first ':' ("solve", "cx",
// "conv", "adv").
type cacheCodec struct {
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

// Cache is an entry-bounded, content-addressed store. Values are live Go
// objects; when a spill directory is configured, evicted entries with a
// registered codec are written as checksummed gob files and transparently
// rehydrated on the next miss.
//
// Eviction is GreedyDual over entry counts: every entry carries a
// recompute cost (PutCost; Put means cost 0) and a priority — the cache's
// floor when the entry was last touched, plus its cost. The lowest priority
// goes first, least recently touched among equals, and the floor rises to
// the priority of each evicted entry. With every cost 0 this is exactly
// LRU. An entry whose cost is c survives about c worth of floor rise past
// its last touch, so a verdict that took a second to compute outlives a
// stream of millisecond ones that plain LRU would let push it out.
//
// The disk tier is strictly best-effort and never trusted: every spill file
// carries a CRC32 envelope (see sealSpill), a file that fails its checksum
// or its gob decode is quarantined (removed, counted, treated as a miss),
// and a spill *write* failure keeps the evicted entry in the memory tier —
// so a full or faulty disk degrades cache capacity, never correctness, and
// never a query.
//
// An answer stays visible while it moves between tiers: an evicted entry is
// served from spilling until its spill lands or fails, and a rehydrated one
// is Put back before its file is removed, so a lookup in either window hits
// instead of recomputing.
type Cache struct {
	mu       sync.Mutex
	max      int
	queue    evictQueue // min-heap by (prio, seq): the next entry to evict first
	items    map[string]*cacheEntry
	spilling map[string]*cacheEntry // evicted, spill not yet landed or failed
	floor    int64                  // priority of the last evicted entry; never decreases
	clock    uint64                 // touch counter, for seq
	spill    string
	// spillMu serializes every change to the directory's .gob files — spill
	// writes, removals, listings — and spillBytes with them.
	spillMu    sync.Mutex
	spillBytes int64      // ≥ the directory's .gob bytes, exact right after a listing (see sweepSpillLocked)
	budget     int64      // spill-directory byte budget; ≤ 0 = DefaultSpillMaxBytes
	over       int        // entries kept past max because their spill failed (≤ spillOverflowMax)
	fs         faultfs.FS // the spill tier's filesystem; faultfs.OS in production
	codecs     map[string]cacheCodec
	metrics    *Metrics
}

// DefaultSpillMaxBytes bounds the spill directory when the caller does not
// choose a budget: room for hundreds of thousands of gob'd answers, small
// enough that an unattended server cannot fill a disk.
const DefaultSpillMaxBytes = 1 << 30 // 1 GiB

type cacheEntry struct {
	key  string
	val  any
	cost int64  // what recomputing val costs, in nanoseconds
	prio int64  // floor at the last touch, plus cost
	seq  uint64 // last touch; breaks priority ties least recent first
	idx  int    // position in queue
}

// evictQueue is a container/heap of the memory tier ordered by eviction
// preference.
type evictQueue []*cacheEntry

func (q evictQueue) Len() int { return len(q) }
func (q evictQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q evictQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *evictQueue) Push(x any) {
	e := x.(*cacheEntry)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *evictQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// touch makes ent the most recently used entry at the current floor.
// Caller holds mu.
func (c *Cache) touch(ent *cacheEntry) {
	c.clock++
	ent.seq = c.clock
	ent.prio = c.floor + ent.cost
}

// NewCache returns a cache holding at most max entries in memory (max ≤ 0
// means DefaultCacheSize). spillDir == "" disables the disk tier;
// spillMaxBytes bounds the directory's total size (≤ 0 means
// DefaultSpillMaxBytes). fs is the filesystem the spill tier talks to
// (nil = the real one); tests and the chaos soak pass a faultfs.Faulty.
// When the disk tier is enabled, construction lists the directory once: it
// sweeps partially written *.tmp files left behind by a crash between write
// and rename, adopts the .gob files as the byte count, and trims them to the
// budget if they exceed it.
func NewCache(max int, spillDir string, spillMaxBytes int64, fs faultfs.FS, m *Metrics) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	if spillMaxBytes <= 0 {
		spillMaxBytes = DefaultSpillMaxBytes
	}
	if fs == nil {
		fs = faultfs.OS{}
	}
	if m == nil {
		m = NewMetrics()
	}
	c := &Cache{
		max:      max,
		items:    make(map[string]*cacheEntry),
		spilling: make(map[string]*cacheEntry),
		spill:    spillDir,
		budget:   spillMaxBytes,
		fs:       fs,
		codecs:   make(map[string]cacheCodec),
		metrics:  m,
	}
	if c.spill != "" {
		c.spillMu.Lock()
		if err := c.sweepSpillLocked(); err != nil && !os.IsNotExist(err) {
			// The directory's contents are unknown, so the count is
			// unbounded until the first spill lists it.
			c.setSpillBytesLocked(spillBytesUnknown)
		}
		c.spillMu.Unlock()
	}
	return c
}

// registerCodec installs the spill codec for a key-kind prefix.
func (c *Cache) registerCodec(kind string, enc func(any) ([]byte, error), dec func([]byte) (any, error)) {
	c.codecs[kind] = cacheCodec{encode: enc, decode: dec}
}

func kindOf(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		return key[:i]
	}
	return key
}

func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.spill, kindOf(key)+"-"+hashString(key)+".gob")
}

// Spill-file envelope. Every spill file is
//
//	magic "WFS1" | uint32 BE CRC32(payload) | uint64 BE len(payload) | payload
//
// so a torn write (short file), a truncated payload, or any bit flip in
// payload or header fails openSpill and quarantines the file instead of
// feeding a corrupt artifact back into the engine.
const spillMagic = "WFS1"

const spillHeaderLen = 4 + 4 + 8

// sealSpill wraps an encoded payload in the checksum envelope.
func sealSpill(payload []byte) []byte {
	out := make([]byte, spillHeaderLen+len(payload))
	copy(out, spillMagic)
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(out[8:16], uint64(len(payload)))
	copy(out[spillHeaderLen:], payload)
	return out
}

// openSpill verifies the envelope and returns the payload.
func openSpill(data []byte) ([]byte, error) {
	if len(data) < spillHeaderLen {
		return nil, fmt.Errorf("engine: spill file truncated: %d bytes < %d-byte header", len(data), spillHeaderLen)
	}
	if string(data[:4]) != spillMagic {
		return nil, fmt.Errorf("engine: spill file has bad magic %q", data[:4])
	}
	want := binary.BigEndian.Uint32(data[4:8])
	n := binary.BigEndian.Uint64(data[8:16])
	payload := data[spillHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("engine: spill payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("engine: spill checksum mismatch: crc32 %08x, header says %08x", got, want)
	}
	return payload, nil
}

// Cache tiers as reported by GetTier (and recorded as the cache.lookup
// span's "tier" attribute).
const (
	TierMemory = "memory"
	TierDisk   = "disk"
	TierMiss   = "miss"
)

// Get returns the value stored under key, consulting the disk tier on an
// in-memory miss. It does not count query-level hit/miss metrics — the
// engine does, at whole-query granularity.
func (c *Cache) Get(key string) (any, bool) {
	v, _, ok := c.GetTier(key)
	return v, ok
}

// GetTier is Get, additionally reporting which tier answered: TierMemory,
// TierDisk (rehydrated from a spill gob), or TierMiss.
//
// The disk tier can fail in three ways, none of which surfaces as an error:
// an unreadable file is a miss (counted under cache_spill_read_errors when
// the file exists but cannot be read), and a file whose checksum or gob
// decode fails is quarantined — removed, counted under cache_spill_corrupt,
// and reported as a miss so the caller recomputes. A corrupt spill file can
// cost a recomputation; it can never cost a wrong verdict.
func (c *Cache) GetTier(key string) (any, string, bool) {
	c.mu.Lock()
	if ent, ok := c.items[key]; ok {
		c.touch(ent)
		heap.Fix(&c.queue, ent.idx)
		v := ent.val
		c.mu.Unlock()
		return v, TierMemory, true
	}
	if ent, ok := c.spilling[key]; ok {
		v := ent.val
		c.mu.Unlock()
		return v, TierMemory, true
	}
	c.mu.Unlock()
	if c.spill == "" {
		return nil, TierMiss, false
	}
	codec, ok := c.codecs[kindOf(key)]
	if !ok {
		return nil, TierMiss, false
	}
	listings := c.metrics.CacheSpillListings.Load()
	data, err := c.fs.ReadFile(c.spillPath(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.metrics.CacheSpillReadErrors.Add(1)
		}
		return nil, TierMiss, false
	}
	payload, err := openSpill(data)
	if err != nil {
		c.quarantine(key, len(data), listings)
		return nil, TierMiss, false
	}
	v, err := codec.decode(payload)
	if err != nil {
		c.quarantine(key, len(data), listings)
		return nil, TierMiss, false
	}
	c.metrics.CacheDiskHits.Add(1)
	// The entry is live in memory again; drop the gob so evict/rehydrate
	// cycles do not accrete one file per generation. Re-eviction re-spills.
	// Put comes first, so the answer is in a tier throughout.
	c.Put(key, v)
	if c.removeSpill(key, len(data), listings, true) {
		c.metrics.CacheSpillRemoved.Add(1)
	}
	return v, TierDisk, true
}

// quarantine removes a spill file that failed its checksum or decode and
// counts it. The removal itself is best-effort: if it fails, the next read
// re-quarantines.
func (c *Cache) quarantine(key string, n int, listings int64) {
	c.metrics.CacheSpillCorrupt.Add(1)
	c.removeSpill(key, n, listings, false)
}

// removeSpill removes key's spill file, from which n bytes were read while
// the listing count stood at listings, and takes n off the byte count. If
// the directory was listed since the read, the listing already set the
// count, which may not hold n any more; it is left as it is, an
// over-estimate. With ifLive, the file goes only while key is still in
// memory: once a rehydrated entry has been evicted again, the file at its
// path is the new spill and must stay.
func (c *Cache) removeSpill(key string, n int, listings int64, ifLive bool) bool {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if ifLive {
		c.mu.Lock()
		_, live := c.items[key]
		if !live {
			_, live = c.spilling[key]
		}
		c.mu.Unlock()
		if !live {
			return false
		}
	}
	if c.fs.Remove(c.spillPath(key)) != nil {
		return false
	}
	if c.metrics.CacheSpillListings.Load() == listings {
		c.setSpillBytesLocked(c.spillBytes - int64(n))
	}
	return true
}

// Put stores a value at cost 0: see PutCost.
func (c *Cache) Put(key string, val any) { c.PutCost(key, val, 0) }

// PutCost stores a value that cost the given time to compute, evicting (and
// spilling) the lowest-priority entries beyond the capacity bound. A value
// admitted without computing it — rehydrated, fetched from a peer — is
// stored with cost 0.
func (c *Cache) PutCost(key string, val any, cost time.Duration) {
	c.mu.Lock()
	if ent, ok := c.items[key]; ok {
		ent.val, ent.cost = val, int64(cost)
		c.touch(ent)
		heap.Fix(&c.queue, ent.idx)
		c.mu.Unlock()
		return
	}
	ent := &cacheEntry{key: key, val: val, cost: int64(cost)}
	c.touch(ent)
	heap.Push(&c.queue, ent)
	c.items[key] = ent
	var evicted []*cacheEntry
	for len(c.queue) > c.max+c.over {
		ent := heap.Pop(&c.queue).(*cacheEntry)
		c.floor = ent.prio
		delete(c.items, ent.key)
		c.metrics.CacheEvictions.Add(1)
		if c.spill != "" {
			c.spilling[ent.key] = ent
			evicted = append(evicted, ent)
		}
	}
	c.mu.Unlock()
	for _, ent := range evicted {
		c.spillEntry(ent)
	}
}

// spillEntry writes an evicted entry to the disk tier. Until it returns, the
// entry is served from c.spilling; it leaves there under the same lock that
// records the outcome, so it is in one tier or the other throughout.
func (c *Cache) spillEntry(ent *cacheEntry) {
	landed, err := c.writeSpill(ent)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spilling[ent.key] == ent {
		delete(c.spilling, ent.key)
	}
	switch {
	case landed:
		// A successful spill signals the disk recovered: release one unit
		// of failure overflow, so the next eviction drains a previously
		// retained entry to disk and the memory tier shrinks back to its
		// nominal bound.
		if c.over > 0 {
			c.over--
		}
	case err != nil:
		c.spillFailedLocked(ent)
	}
}

// writeSpill encodes ent and writes it to its spill path, temp file then
// rename, and adds the sealed length to the byte count. It reports whether
// the file landed; a value with no codec, or one its codec cannot encode, is
// dropped with a nil error.
func (c *Cache) writeSpill(ent *cacheEntry) (bool, error) {
	codec, ok := c.codecs[kindOf(ent.key)]
	if !ok {
		return false, nil
	}
	data, err := codec.encode(ent.val)
	if err != nil {
		return false, nil
	}
	sealed := sealSpill(data)
	if err := c.fs.MkdirAll(c.spill, 0o755); err != nil {
		return false, err
	}
	tmp := c.spillPath(ent.key) + ".tmp"
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if err := c.fs.WriteFile(tmp, sealed, 0o644); err != nil {
		c.fs.Remove(tmp)
		return false, err
	}
	if err := c.fs.Rename(tmp, c.spillPath(ent.key)); err != nil {
		c.fs.Remove(tmp)
		return false, err
	}
	c.metrics.CacheSpills.Add(1)
	// The full sealed length, even if the write tore: the count may only
	// over-estimate.
	c.setSpillBytesLocked(c.spillBytes + int64(len(sealed)))
	if c.spillBytes > c.budget {
		c.sweepSpillLocked()
	}
	return true, nil
}

// spillOverflowMax bounds how many evicted-but-unspillable entries the
// memory tier retains past its nominal capacity: enough that a briefly full
// disk costs nothing, small enough that a permanently failing disk costs a
// constant amount of memory and one failed spill attempt per eviction.
const spillOverflowMax = 8

// spillFailedLocked is the best-effort degradation path: a spill write that
// cannot land on disk (full disk, read-only dir, injected fault) is counted
// and the evicted entry is re-inserted at the cold end of the memory tier (at
// the floor, older than any touch), so the value stays servable. At most
// spillOverflowMax entries are retained this way; past that, the coldest
// entries are dropped and recomputed on demand — a full disk degrades cache
// capacity, never a query. Caller holds mu.
func (c *Cache) spillFailedLocked(ent *cacheEntry) {
	c.metrics.CacheSpillWriteErrors.Add(1)
	if _, ok := c.items[ent.key]; !ok && c.over < spillOverflowMax {
		ent.prio, ent.seq = c.floor, 0
		heap.Push(&c.queue, ent)
		c.items[ent.key] = ent
		c.over++
	}
}

// spillBytesUnknown is the byte count when the construction listing failed:
// no bound is known, so the first spill lists. Half of MaxInt64, so that
// adding spills to it cannot overflow.
const spillBytesUnknown = math.MaxInt64 / 2

// setSpillBytesLocked sets the byte count and its gauge. Caller holds
// spillMu.
func (c *Cache) setSpillBytesLocked(n int64) {
	c.spillBytes = n
	c.metrics.CacheSpillBytes.Store(n)
}

// sweepSpillLocked lists the spill directory. It runs at construction and
// afterwards only when a spill takes the byte count past the budget, so a
// directory at its budget is listed once per budget/8 bytes spilled, not on
// every spill. It removes *.tmp files (none is being written while spillMu
// is held, so each is left over from a crash or a failed write), resets the
// count to the .gob total, and if that exceeds the budget deletes the oldest
// files (by modification time — a proxy for least recently spilled) down to
// 7/8 of it. A failed listing leaves the count as it was, so while it is over
// the budget the next spill lists again. Caller holds spillMu.
func (c *Cache) sweepSpillLocked() error {
	c.metrics.CacheSpillListings.Add(1)
	entries, err := c.fs.ReadDir(c.spill)
	if err != nil {
		return err
	}
	type spillFile struct {
		name  string
		size  int64
		mtime int64
	}
	var files []spillFile
	var total int64
	for _, e := range entries {
		name := filepath.Join(c.spill, e.Name())
		switch {
		case e.IsDir(): // not the cache's
		case strings.HasSuffix(name, ".tmp"):
			if c.fs.Remove(name) == nil {
				c.metrics.CacheSpillTmpSwept.Add(1)
			}
		case strings.HasSuffix(name, ".gob"):
			info, err := e.Info()
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return err
			}
			files = append(files, spillFile{name, info.Size(), info.ModTime().UnixNano()})
			total += info.Size()
		}
	}
	if total > c.budget {
		slices.SortFunc(files, func(a, b spillFile) int {
			return cmp.Or(cmp.Compare(a.mtime, b.mtime), cmp.Compare(a.name, b.name))
		})
		low := c.budget - c.budget/8
		for _, f := range files {
			if total <= low {
				break
			}
			if c.fs.Remove(f.name) == nil {
				total -= f.size
				c.metrics.CacheSpillRemoved.Add(1)
			}
		}
	}
	c.setSpillBytesLocked(total)
	return nil
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Keys returns the in-memory keys, most recently touched first.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ents := slices.Clone(c.queue)
	slices.SortFunc(ents, func(a, b *cacheEntry) int { return cmp.Compare(b.seq, a.seq) })
	out := make([]string, len(ents))
	for i, ent := range ents {
		out[i] = ent.key
	}
	return out
}
