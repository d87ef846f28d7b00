// Package cluster turns `wfrepro serve` into a shardable cluster node: a
// consistent hash ring over the gossiped membership decides which node owns
// each content-addressed cache key, one SWIM liveness loop tracks peer
// liveness (up → suspect → down, indirect probes before down), and a
// peer-fetch client pulls finished artifacts from their owner — verified
// against their SHA-256 content address — instead of recomputing them.
//
// The ring keys are the engine's existing cache keys: every artifact is
// already addressed by the SHA-256 of its canonical encoding (or by a
// canonical parameter string containing one), so placement is a pure
// function of the query and identical on every node that shares the peer
// list. Queries are pure functions of their parameters, which is what makes
// serving a peer's artifact byte-identical to computing it locally — the
// same determinism the differential oracles and the chaos soak assert.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the default virtual-node count per physical node. 64
// points per node keeps the expected load imbalance across a handful of
// shards under ~15% while the ring stays a few KB.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// physical node.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent hash ring with virtual nodes. Placement is
// deterministic: two rings built from the same node set (in any order, with
// the same vnode count) agree on the owner of every key. Immutable after
// construction — membership changes build a new ring.
type Ring struct {
	vnodes int
	nodes  []string // deduplicated, sorted
	points []ringPoint
}

// NewRing builds a ring over the given nodes with vnodes virtual nodes each
// (vnodes <= 0 means DefaultVNodes). Duplicate nodes are collapsed; at least
// one node is required.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	// Ties broken by node name so the sort — and therefore placement — is
	// deterministic even in the astronomically unlikely hash-collision case.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// ringHash maps a string to a point on the 64-bit ring: the first 8 bytes of
// its SHA-256, big-endian. Reusing the engine's hash keeps the whole
// placement story one primitive.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the node that owns key: the first virtual node clockwise
// from the key's ring position.
func (r *Ring) Owner(key string) string {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].node
}

// Nodes returns the ring's physical nodes, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Size returns the number of virtual nodes (ring points).
func (r *Ring) Size() int { return len(r.points) }
