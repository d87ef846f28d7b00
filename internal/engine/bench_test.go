package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// benchReq is binary consensus for two processes at b ≤ 2. Its Sperner
// certificate answers it cold before any level is built; warm, it is a
// store hit that builds no task.
var benchReq = SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 2}

// coldReq has no certificate: a cold answer builds levels 0–2 and searches
// them, finding a map at b = 2 after 678 nodes.
var coldReq = SolveRequest{Spec: TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 4}, MaxLevel: 2}

// gcOff collects once and turns the collector off until the benchmark
// returns, so a fresh-engine benchmark's allocs/op is exact: a GC cycle
// during the run empties the standard library's pools (fmt's among them),
// and refilling them moved allocs/op by a few from run to run. Its ns/op
// then excludes GC time.
func gcOff(b *testing.B) {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	b.Cleanup(func() { debug.SetGCPercent(percent) })
	b.ResetTimer()
}

// BenchmarkEngineSolveCold measures a full computation: fresh engine per
// iteration, nothing cached, every level built and searched.
func BenchmarkEngineSolveCold(b *testing.B) {
	gcOff(b)
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{}).Solve(context.Background(), coldReq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineComplexCold measures the complex endpoint's heaviest
// answer cold: a fresh engine per iteration builds SDS³(s²) and hashes its
// canonical encoding, and takes its f-vector from the closed form. One
// untimed answer first takes the process's one-time set-up out of the exact
// allocs/op.
func BenchmarkEngineComplexCold(b *testing.B) {
	req := ComplexRequest{N: 2, B: 3}
	if _, err := New(Options{}).ComplexInfo(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	gcOff(b)
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{}).ComplexInfo(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveWarm measures a content-address hit: one engine,
// verdict cached before the timer starts.
func BenchmarkEngineSolveWarm(b *testing.B) {
	e := New(Options{})
	if _, err := e.Solve(context.Background(), benchReq); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(context.Background(), benchReq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveConcurrent measures 8 clients hammering one engine
// with a mix of queries; after the first round everything is singleflight-
// deduped or cache-hit.
func BenchmarkEngineSolveConcurrent(b *testing.B) {
	e := New(Options{})
	reqs := []SolveRequest{
		benchReq,
		{Spec: TaskSpec{Family: "approx-agreement", D: 2}, MaxLevel: 2},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, MaxLevel: 1},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 3}, MaxLevel: 0},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := e.Solve(context.Background(), reqs[c%len(reqs)]); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkCacheSpillChurn measures one eviction and its spill: a full
// 512-entry cache whose spill directory already holds 4,096 replay-sized
// files, and each op puts a new replay. A spill that listed the directory
// would allocate per file, so allocs/op stays flat only while spills do not.
func BenchmarkCacheSpillChurn(b *testing.B) {
	dir := b.TempDir()
	resp, err := RunAdversary(AdversaryRequest{Algo: "commitadopt", Adversary: "random", Seed: 1, Procs: 3})
	if err != nil {
		b.Fatal(err)
	}
	data, err := gobEncode(resp)
	if err != nil {
		b.Fatal(err)
	}
	sealed := sealSpill(data)
	for i := 0; i < 4096; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("adv-fill%04d.gob", i)), sealed, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	c := New(Options{SpillDir: dir}).cache
	key := func(i int) string {
		return AdversaryRequest{Algo: "commitadopt", Adversary: "random", Seed: int64(i), Procs: 3}.Key()
	}
	for i := 0; i < DefaultCacheSize; i++ {
		c.Put(key(i), resp)
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = key(DefaultCacheSize + i)
	}
	b.ResetTimer()
	for _, k := range keys {
		c.Put(k, resp)
	}
}
