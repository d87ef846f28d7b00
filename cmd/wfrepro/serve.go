package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/faultfs"
	"waitfree/internal/netfault"
	"waitfree/internal/serve"
)

// cmdServe runs the solvability query service: the engine behind every
// -json subcommand, exposed over HTTP with caching, dedup, and metrics.
func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "localhost:8080", "listen address")
	cacheSize := fs.Int("cache", engine.DefaultCacheSize, "in-memory cache entries")
	spill := fs.String("spill", "", "directory for the gob spill-to-disk tier (empty = memory only)")
	spillMax := fs.Int64("spillmax", engine.DefaultSpillMaxBytes, "byte budget for the spill dir (oldest files swept first)")
	maxconc := fs.Int("maxconc", serve.DefaultMaxConcurrent, "max concurrent requests")
	timeout := fs.Duration("timeout", serve.DefaultTimeout, "per-request deadline")
	slowlog := fs.Duration("slowlog", 0, "log queries slower than this with a reproducing CLI line (0 = off)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/* (CPU/heap/goroutine profiles)")
	traceBuf := fs.Int("tracebuf", 0, "trace registry capacity for /debug/traces (0 = default 256)")
	maxCost := fs.Int64("maxcost", 0, "admission budget in Lemma 3.3 facets; over-estimate queries get 400 (0 = unlimited)")
	degCost := fs.Int64("degradedcost", 0, "degraded-mode cost budget (0 = default, negative = cache hits only)")
	brkThresh := fs.Int("breaker-threshold", 0, "spill-fault/5xx count that trips degraded mode (0 = default)")
	brkWindow := fs.Duration("breaker-window", 0, "sliding window for breaker failure counting (0 = default)")
	brkCooldown := fs.Duration("breaker-cooldown", 0, "quiet period before the breaker recovers (0 = default)")
	faultSeed := fs.Int64("faultseed", 0, "DEV ONLY: inject deterministic storage faults into the spill tier with this seed (0 = off)")
	faultRate := fs.Float64("faultrate", 0, "DEV ONLY: per-op fault probability for -faultseed (0 = default 0.1)")
	peers := fs.String("peers", "", "comma-separated seed peer list (incl. or excl. this node) — enables cluster mode; gossip discovers the rest")
	advertise := fs.String("advertise", "", "this node's address as it appears in -peers (default: -addr)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per peer on the hash ring")
	gossipEvery := fs.Duration("gossip-interval", 0, "liveness protocol period: one membership exchange with the next peer per period (0 = default 1s)")
	netfaultSeed := fs.Int64("netfaultseed", 0, "DEV ONLY: inject deterministic network faults into cluster traffic with this seed (0 = off)")
	netfaultRate := fs.Float64("netfaultrate", -1, "DEV ONLY: per-op fault probability for -netfaultseed (negative = default 0.1, 0 = partitions only)")
	netPartition := fs.String("netpartition", "", "DEV ONLY: standing partition spec, e.g. 'a:1|b:1,c:1' or 'a:1->b:1' (arms the adversary even without -netfaultseed)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	eo := engine.Options{CacheSize: *cacheSize, SpillDir: *spill, SpillMaxBytes: *spillMax}
	if *faultSeed != 0 {
		// The storage adversary, same contract as the scheduler's -seed: the
		// fault schedule is a pure function of the seed, printed up front so
		// a failure report can quote it.
		ffs := faultfs.New(faultfs.OS{}, *faultSeed, *faultRate)
		eo.SpillFS = ffs
		fmt.Fprintf(os.Stderr, "wfrepro serve: DEV storage fault injection active\n%s", ffs.PlanString(32))
	}
	eng := engine.New(eo)

	var cl *cluster.Cluster
	var nft *netfault.Transport
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = *addr
		}
		var client *http.Client
		if *netfaultSeed != 0 || *netPartition != "" {
			// The network adversary, same contract as -faultseed for disk and
			// the scheduler's -seed: the fault plan is a pure function of
			// (seed, rate, src, dst, op-index), printed up front per peer so a
			// failure report can quote the exact schedule that produced it.
			nft = netfault.New(nil, self, netfault.Options{Seed: *netfaultSeed, Rate: *netfaultRate})
			if err := nft.SetPartition(*netPartition); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wfrepro serve: DEV network fault injection active\n")
			if *netfaultSeed != 0 {
				for _, p := range strings.Split(*peers, ",") {
					dst := cluster.NormalizeAddr(p)
					if dst == "" || dst == cluster.NormalizeAddr(self) {
						continue
					}
					fmt.Fprint(os.Stderr, nft.PlanString(self, dst, 8))
				}
			}
			client = &http.Client{Timeout: 30 * time.Second, Transport: nft}
		}
		var err error
		cl, err = cluster.New(cluster.Options{
			Self:           self,
			Peers:          strings.Split(*peers, ","),
			VNodes:         *vnodes,
			GossipInterval: *gossipEvery,
			Client:         client,
			Metrics:        eng.Metrics(),
			// Anti-entropy admission and the cost-derived fetch bound both
			// come from the engine: the cluster moves bytes, the engine
			// decides what they may cost and whether they decode.
			Admitter:   eng,
			FetchLimit: eng.FetchByteLimit,
		})
		if err != nil {
			return err
		}
		// Peer cache-fill: the engine asks the key's ring owner for finished
		// artifacts before computing a miss.
		eng.SetPeerFiller(cl)
	}

	srv := serve.NewServer(eng, serve.Options{
		MaxConcurrent:   *maxconc,
		Timeout:         *timeout,
		SlowLog:         *slowlog,
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, nil)),
		EnablePprof:     *pprofOn,
		TraceBuffer:     *traceBuf,
		MaxCost:         *maxCost,
		DegradedMaxCost: *degCost,
		Breaker: serve.BreakerOptions{
			Threshold: *brkThresh,
			Window:    *brkWindow,
			Cooldown:  *brkCooldown,
		},
		Cluster:  cl,
		NetFault: nft,
	})

	ctx, stop := signalContext()
	defer stop()
	if cl != nil {
		cl.Start(ctx)
		fmt.Printf("wfrepro serve: cluster mode, self=%s ring=%d nodes × %d vnodes\n",
			cl.Self(), len(cl.Ring().Nodes()), *vnodes)
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- serve.Run(ctx, *addr, srv, ready) }()
	select {
	case bound := <-ready:
		fmt.Printf("wfrepro serve: listening on http://%s (cache=%d maxconc=%d timeout=%s slowlog=%s pprof=%v)\n",
			bound, *cacheSize, *maxconc, *timeout, *slowlog, *pprofOn)
	case err := <-errc:
		return err
	}
	err := <-errc
	if cl != nil {
		// Graceful leave, after the listener has drained: announce the
		// departure at a bumped incarnation so peers remap the ring now
		// instead of after a suspicion timeout. Best-effort on a fresh
		// context — the signal context is already canceled.
		leaveCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		cl.Leave(leaveCtx)
		cancel()
		fmt.Println("wfrepro serve: announced leave to cluster")
	}
	if err == nil {
		fmt.Println("wfrepro serve: drained, bye")
	}
	return err
}
