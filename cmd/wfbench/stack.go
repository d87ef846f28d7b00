package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/faultfs"
	"waitfree/internal/serve"
)

// node is one in-process server, wired as `wfrepro serve` wires it:
// engine.New → (cluster.New, SetPeerFiller) → serve.NewServer, served by an
// http.Server with serve.Run's settings on a loopback listener.
type node struct {
	url    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	stop   context.CancelFunc // stops the cluster loops; nil on a single node
}

// nodeConfig is what differs between the nodes a workload boots.
type nodeConfig struct {
	spillDir string   // "" = memory tier only
	peers    []string // the whole cluster, self included; nil = single node
	tracer   *tracer  // nil = production wiring, no seams wrapped
}

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// bootNode starts a node on ln.
func bootNode(ln net.Listener, cfg nodeConfig) (*node, error) {
	self := "http://" + ln.Addr().String()
	eo := engine.Options{SpillDir: cfg.spillDir}
	if cfg.tracer != nil && cfg.spillDir != "" {
		eo.SpillFS = spillFS{inner: faultfs.OS{}, t: cfg.tracer}
	}
	eng := engine.New(eo)
	n := &node{url: self, served: make(chan error, 1)}
	var cl *cluster.Cluster
	if cfg.peers != nil {
		co := cluster.Options{
			Self:       self,
			Peers:      cfg.peers,
			VNodes:     cluster.DefaultVNodes,
			Metrics:    eng.Metrics(),
			Admitter:   eng,
			FetchLimit: eng.FetchByteLimit,
		}
		if t := cfg.tracer; t != nil {
			co.Client = &http.Client{
				Timeout:   30 * time.Second,
				Transport: &peerTransport{inner: http.DefaultTransport.(*http.Transport).Clone(), t: t},
			}
			co.Admitter = admitSpans{inner: eng, t: t}
		}
		var err error
		if cl, err = cluster.New(co); err != nil {
			ln.Close()
			return nil, err
		}
		var pf engine.PeerFiller = cl
		if cfg.tracer != nil {
			pf = fillSpans{inner: cl, t: cfg.tracer}
		}
		eng.SetPeerFiller(pf)
	}
	n.srv = serve.NewServer(eng, serve.Options{Logger: logger, Cluster: cl})
	h := n.srv.Handler()
	if cfg.tracer != nil {
		h = cfg.tracer.serveHandler(h)
	}
	n.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	if cl != nil {
		ctx, cancel := context.WithCancel(context.Background())
		n.stop = cancel
		cl.Start(ctx)
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// close stops the cluster loops, closes the server and waits for Serve to
// return. Nothing the benchmark measures is in flight by then, so the
// server is closed outright: a graceful Shutdown waits up to five seconds
// for connections that peers opened but never used.
func (n *node) close() error {
	if n.stop != nil {
		n.stop()
	}
	err := n.hs.Close()
	if serr := <-n.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (n *node) engine() *engine.Engine { return n.srv.Engine() }

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// bootSingle starts one node and waits until it answers /healthz.
func (b *bench) bootSingle(cfg nodeConfig) (*node, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n, err := bootNode(ln, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := b.health(n.url); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// bootCluster starts size nodes sharing one static peer list, the way
// `wfrepro serve -peers` is deployed, and waits until every member reports
// the same members_hash in /healthz and has made its first anti-entropy
// pass. That pass runs one gossip interval after start and again only when
// membership changes; waiting for it keeps it out of the timed phase, where
// it would pull whatever the set-up just computed at a moment set by the
// ring's placement of random ports.
func (b *bench) bootCluster(size int, tr *tracer) ([]*node, error) {
	lns := make([]net.Listener, size)
	peers := make([]string, size)
	for i := range lns {
		ln, err := listenLoopback()
		if err != nil {
			closeListeners(lns[:i])
			return nil, err
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, 0, size)
	for i, ln := range lns {
		n, err := bootNode(ln, nodeConfig{peers: peers, tracer: tr})
		if err != nil {
			closeListeners(lns[i+1:])
			closeAll(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready, err := b.clusterReady(nodes)
		if err != nil {
			closeAll(nodes)
			return nil, err
		}
		if ready {
			return nodes, nil
		}
		if time.Now().After(deadline) {
			closeAll(nodes)
			return nil, fmt.Errorf("cluster not steady within 10s: members_hash disagrees or anti-entropy has not run")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clusterReady reports whether the members agree on placement and each has
// listed every peer's keys once — its first anti-entropy pass.
func (b *bench) clusterReady(nodes []*node) (bool, error) {
	agreed, err := b.membersAgree(nodes)
	if err != nil || !agreed {
		return false, err
	}
	c, err := b.sumCounters(nodes)
	if err != nil {
		return false, err
	}
	return c["counter_cluster_peer_keys_requests"] >= float64(len(nodes)*(len(nodes)-1)), nil
}

func (b *bench) membersAgree(nodes []*node) (bool, error) {
	var first string
	for i, n := range nodes {
		h, err := b.health(n.url)
		if err != nil {
			return false, err
		}
		if h.Cluster.MembersHash == "" {
			return false, nil
		}
		if i == 0 {
			first = h.Cluster.MembersHash
		} else if h.Cluster.MembersHash != first {
			return false, nil
		}
	}
	return true, nil
}

type healthz struct {
	Status  string `json:"status"`
	Cluster struct {
		MembersHash string `json:"members_hash"`
	} `json:"cluster"`
}

func (b *bench) health(base string) (*healthz, error) {
	body, status, _, err := b.get(base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/healthz: status %d", base, status)
	}
	var h healthz
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("%s/healthz: %w", base, err)
	}
	return &h, nil
}

// counters reads a node's /metrics and keeps its numeric counters.
func (b *bench) counters(base string) (map[string]float64, error) {
	body, status, _, err := b.get(base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, status)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// sumCounters reads /metrics on every node and adds them up.
func (b *bench) sumCounters(nodes []*node) (map[string]float64, error) {
	total := map[string]float64{}
	for _, n := range nodes {
		c, err := b.counters(n.url)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			total[k] += v
		}
	}
	return total, nil
}

func closeAll(nodes []*node) error {
	var first error
	for _, n := range nodes {
		if n.stop != nil {
			n.stop()
		}
	}
	for _, n := range nodes {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}
