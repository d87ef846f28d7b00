package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// workload is one traffic mix. keys lists the queries it can send, the mix
// first when it sends the mix; seq generates its request order from the
// seed; run measures one phase and returns with the stack still up, so the
// direct phase can use its warm engine.
type workload struct {
	name string
	why  string
	keys func(b *bench) []query
	seq  func(b *bench, nkeys int) sequence
	run  func(b *bench, c *checker, seq sequence, ps phaseSpec) (*phase, error)
}

// Key-space sizes at scale 1.
const (
	churnKeys   = 8192 // 16× the default 512-entry memory tier
	clusterKeys = 3000 // replays added to the mix on the cluster
)

var workloads = []workload{
	{
		name: "warm-hits",
		why:  "one node, the query mix answered once in set-up, uniform traffic over it: every request is a memory hit, so serve, net/http and the cache lookup are all that run",
		keys: func(b *bench) []query { return b.mix },
		seq: func(b *bench, nkeys int) sequence {
			return uniformSeq(workloadRand("warm-hits", b.seed), seqLen, nkeys)
		},
		run: runWarmHits,
	},
	{
		name: "cold-mix",
		why:  "a fresh node per pass answering the whole mix in a seeded order: every query computes, so subdivision, solver, converge and singleflight dominate",
		keys: func(b *bench) []query { return b.mix },
		seq: func(b *bench, nkeys int) sequence {
			return passSeq(workloadRand("cold-mix", b.seed), seqLen/nkeys, nkeys)
		},
		run: runColdMix,
	},
	{
		name: "churn-spill",
		why:  "one node with the spill tier, Zipf(1.1) over 8192 replays (16x the memory tier): reads, spill writes, evictions and disk rehydrates run side by side",
		keys: func(b *bench) []query { return replayKeys(b.scaled(churnKeys)) },
		seq: func(b *bench, nkeys int) sequence {
			return zipfSeq(workloadRand("churn-spill", b.seed), seqLen, nkeys, 0, 1)
		},
		run: runChurnSpill,
	},
	{
		name: "cluster-spray",
		why:  "a 3-node gossiping cluster warmed in set-up, each request to a random node, Zipf(1.1) over the mix and 3000 replays: routing, forwarding and peer fill run on every miss",
		keys: func(b *bench) []query {
			return append(append([]query(nil), b.mix...), replayKeys(b.scaled(clusterKeys))...)
		},
		seq: func(b *bench, nkeys int) sequence {
			return zipfSeq(workloadRand("cluster-spray", b.seed), seqLen, nkeys, len(b.mix), clusterSize)
		},
		run: runClusterSpray,
	},
}

// clusterSize is the number of nodes cluster-spray boots.
const clusterSize = 3

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minColdSamples is the fewest requests an untraced cold-mix phase sends,
// so that its p99 has at least ten samples beyond it on a slow machine too.
const minColdSamples = 1000

// phaseSpec says how a phase measures.
type phaseSpec struct {
	seconds    float64
	setups     int     // set-ups to run at least; more while they are cheap
	minSamples int     // fewest requests to send (cold-mix), for a p99
	tracer     *tracer // nil = untraced, production wiring
}

// phase is one measured stretch of a workload.
type phase struct {
	setups   []float64 // seconds per set-up
	load     load
	use      usage
	counters map[string]float64 // /metrics deltas over the timed stretch, all nodes
	passes   int                // cold passes; 1 for the steady workloads
	nodes    []*node            // the stack, still up
	cleanup  func()             // removes what the stack left on disk
}

// close shuts the phase's stack down and removes its files.
func (p *phase) close() error {
	err := closeAll(p.nodes)
	if p.cleanup != nil {
		p.cleanup()
	}
	return err
}

func (p *phase) qps() float64 {
	if p.load.elapsed <= 0 {
		return 0
	}
	return float64(p.load.ok) / p.load.elapsed.Seconds()
}

// setUp runs boot at least reps times — and, while the set-ups stay cheap,
// up to maxSetups times within a second — keeping the last stack and
// discarding the others. It returns each set-up's duration in seconds.
func setUp[T any](reps int, boot func() (T, error), discard func(T)) (T, []float64, error) {
	const maxSetups = 15
	var last T
	var secs []float64
	began := time.Now()
	for i := 0; i < reps || (reps > 1 && i < maxSetups && time.Since(began) < time.Second); i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := boot()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, secs, nil
}

// timed runs the steady traffic of a workload on a booted stack: the
// clients send seq until the phase's seconds are up, while the heap is
// sampled and /metrics is read before and after.
func (b *bench) timed(p *phase, c *checker, seq sequence, ps phaseSpec) error {
	urls := make([]string, len(p.nodes))
	for i, n := range p.nodes {
		urls[i] = n.url
	}
	before, err := b.sumCounters(p.nodes)
	if err != nil {
		return err
	}
	if ps.tracer != nil {
		ps.tracer.reset()
	}
	deadline := time.Now().Add(time.Duration(ps.seconds * float64(time.Second)))
	p.use = measureUsage(func() { p.load = b.drive(c, urls, seq, 0, math.MaxInt, deadline, ps.tracer) })
	after, err := b.sumCounters(p.nodes)
	if err != nil {
		return err
	}
	p.counters = delta(after, before)
	p.passes = 1
	return nil
}

func delta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// warmUp answers the first n queries of c once, in order, through base.
func (b *bench) warmUp(c *checker, base string, n int) {
	inOrder := make(sequence, n)
	for i := range inOrder {
		inOrder[i] = uint32(i)
	}
	b.drive(c, []string{base}, inOrder, 0, n, time.Time{}, nil)
}

// runWarmHits: set-up boots a node and answers the mix once; the traffic is
// uniform over the mix.
func runWarmHits(b *bench, c *checker, seq sequence, ps phaseSpec) (*phase, error) {
	n, setups, err := setUp(ps.setups, func() (*node, error) {
		n, err := b.bootSingle(nodeConfig{tracer: ps.tracer})
		if err != nil {
			return nil, err
		}
		b.warmUp(c, n.url, len(b.mix))
		return n, nil
	}, func(n *node) { n.close() })
	if err != nil {
		return nil, err
	}
	p := &phase{setups: setups, nodes: []*node{n}}
	if err := b.timed(p, c, seq, ps); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// runColdMix boots a fresh node per pass and sends it one pass of seq — the
// whole mix in a seeded order — until the phase's seconds are up and at
// least minSamples requests were sent. Boots are set-up time; latency and
// throughput count only the passes' requests.
func runColdMix(b *bench, c *checker, seq sequence, ps phaseSpec) (*phase, error) {
	p := &phase{counters: map[string]float64{}}
	if ps.tracer != nil {
		ps.tracer.reset()
	}
	size := len(c.qs)
	var err error
	began := time.Now()
	p.use = measureUsage(func() {
		for p.passes == 0 || p.load.attempted < ps.minSamples || time.Since(began).Seconds() < ps.seconds {
			t0 := time.Now()
			var n *node
			if n, err = b.bootSingle(nodeConfig{tracer: ps.tracer}); err != nil {
				return
			}
			p.setups = append(p.setups, time.Since(t0).Seconds())
			if len(p.nodes) > 0 {
				p.nodes[0].close()
			}
			p.nodes = []*node{n}
			p.load.add(b.drive(c, []string{n.url}, seq, p.passes*size, size, time.Time{}, ps.tracer))
			p.passes++
			var cs map[string]float64
			if cs, err = b.counters(n.url); err != nil {
				return
			}
			for k, v := range cs {
				p.counters[k] += v
			}
		}
	})
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// runChurnSpill boots one node with the spill tier on in a fresh directory;
// the traffic is Zipf over the replay key space.
func runChurnSpill(b *bench, c *checker, seq sequence, ps phaseSpec) (*phase, error) {
	type stack struct {
		n   *node
		dir string
	}
	st, setups, err := setUp(ps.setups, func() (stack, error) {
		if err := os.MkdirAll(b.workDir, 0o755); err != nil {
			return stack{}, err
		}
		dir, err := os.MkdirTemp(b.workDir, "spill-")
		if err != nil {
			return stack{}, err
		}
		n, err := b.bootSingle(nodeConfig{spillDir: dir, tracer: ps.tracer})
		if err != nil {
			os.RemoveAll(dir)
			return stack{}, err
		}
		return stack{n, dir}, nil
	}, func(s stack) {
		s.n.close()
		os.RemoveAll(s.dir)
	})
	if err != nil {
		return nil, err
	}
	p := &phase{setups: setups, nodes: []*node{st.n}, cleanup: func() { os.RemoveAll(st.dir) }}
	if err := b.timed(p, c, seq, ps); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// runClusterSpray boots a cluster and answers every query once through its
// first node, so each is computed by its owner before timing starts: the
// timed phase is the steady state, where the misses that route are those
// the 512-entry caches evict, not a warm-up transient whose length depends
// on the machine. Each request then goes to a random node, Zipf over the
// mix (the popular head) and the replays.
func runClusterSpray(b *bench, c *checker, seq sequence, ps phaseSpec) (*phase, error) {
	nodes, setups, err := setUp(ps.setups, func() ([]*node, error) {
		ns, err := b.bootCluster(clusterSize, ps.tracer)
		if err != nil {
			return nil, err
		}
		b.warmUp(c, ns[0].url, len(c.qs))
		return ns, nil
	}, func(ns []*node) { closeAll(ns) })
	if err != nil {
		return nil, err
	}
	p := &phase{setups: setups, nodes: nodes}
	if err := b.timed(p, c, seq, ps); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// sampleSize is how many first-seen answers are recomputed after a run.
const sampleSize = 256

// firstSeen returns, in a seeded order, the queries whose reference is the
// first answer seen (the replays) and that were answered.
func (b *bench) firstSeen(c *checker, salt string) []int {
	var seen []int
	for k := range c.qs {
		if !c.preset[k] && c.ref[k].Load() != nil {
			seen = append(seen, k)
		}
	}
	r := workloadRand(salt, b.seed)
	r.Shuffle(len(seen), func(i, j int) { seen[i], seen[j] = seen[j], seen[i] })
	if n := b.scaled(sampleSize); len(seen) > n {
		seen = seen[:n]
	}
	return seen
}

// verifySample recomputes a seeded sample of the first-seen answers on a
// fresh reference node; a difference is a failure like any other.
func (b *bench) verifySample(w workload, c *checker) (int, error) {
	sample := b.firstSeen(c, w.name+"/sample")
	if len(sample) == 0 {
		return 0, nil
	}
	ref, err := b.bootSingle(nodeConfig{})
	if err != nil {
		return 0, err
	}
	defer ref.close()
	for _, k := range sample {
		body, status, _, err := b.get(ref.url+c.qs[k].path, nil)
		c.check(k, status, body, err)
	}
	return len(sample), nil
}

// mixReference answers the mix once on a fresh single node, checking each
// answer against its golden; the bodies are the reference every later
// answer to a mix query must equal byte for byte.
func (b *bench) mixReference() ([][]byte, error) {
	if b.mixRef != nil {
		return b.mixRef, nil
	}
	n, err := b.bootSingle(nodeConfig{})
	if err != nil {
		return nil, err
	}
	defer n.close()
	c := newChecker(b.mix, nil)
	b.warmUp(c, n.url, len(b.mix))
	if c.failed.Load() > 0 {
		return nil, fmt.Errorf("reference node failed the mix goldens:\n  %v", c.reports)
	}
	ref := make([][]byte, len(b.mix))
	for k := range ref {
		ref[k] = *c.ref[k].Load()
	}
	b.mixRef = ref
	return ref, nil
}

// presetFor returns the reference bodies for qs: the mix reference when qs
// starts with the mix, nothing for the replays.
func (b *bench) presetFor(qs []query) ([][]byte, error) {
	if len(qs) < len(b.mix) || qs[0].key != b.mix[0].key {
		return nil, nil
	}
	ref, err := b.mixReference()
	if err != nil {
		return nil, err
	}
	return append(ref[:len(ref):len(ref)], make([][]byte, len(qs)-len(ref))...), nil
}

// distinctSent counts the distinct queries among the first n positions of
// seq: with a spill tier that keeps every answer, it is exactly the number
// of cache misses a run of n requests must cost.
func distinctSent(seq sequence, n int) int {
	seen := make(map[int]bool)
	for i := 0; i < n && i < len(seq); i++ {
		_, k := seq.at(i)
		seen[k] = true
	}
	return len(seen)
}
