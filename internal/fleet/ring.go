// Package fleet turns the single-SD engine into an N-node scatter/gather
// cluster: rendezvous-hash placement of a file's byte ranges across smart
// storage nodes, a host-side coordinator that fans jobs out over per-node
// smartFAM sessions with failover and straggler re-execution, and a word
// count that sends each node one bundle of its ranges and folds the one
// sorted run each node answers with into a result byte-identical to
// single-node execution (the paper's §VI "parallelisms among multiple McSD
// smart disks"). It is also the replicated object store and its scrubber.
package fleet

import (
	"hash/fnv"
	"sort"
)

// Ring assigns fragment keys to SD nodes by rendezvous (highest-random-
// weight) hashing: every (node, key) pair gets a deterministic score and
// the key belongs to the highest-scoring node. HRW gives the two placement
// invariants the fleet needs with no virtual-node bookkeeping:
//
//   - determinism across process restarts — the score is a pure FNV-1a
//     hash of the node name and key, so a rebooted coordinator reproduces
//     the placement exactly;
//   - minimal movement — adding a node moves only the keys whose new top
//     scorer is that node (≈1/N of them); removing a node moves only the
//     keys it owned, each to its next-ranked survivor.
//
// A Ring never changes after NewRing, so it is safe for concurrent use.
type Ring struct {
	nodes []string // sorted, unique
}

// NewRing returns a ring over the given node names (duplicates ignored).
func NewRing(nodes ...string) *Ring {
	r := &Ring{}
	for _, n := range nodes {
		r.add(n)
	}
	return r
}

// add inserts name keeping nodes sorted and unique.
func (r *Ring) add(name string) {
	i := sort.SearchStrings(r.nodes, name)
	if i < len(r.nodes) && r.nodes[i] == name {
		return
	}
	r.nodes = append(r.nodes, "")
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = name
}

// Nodes returns the ring membership in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// score is the HRW weight of key on node: FNV-1a over the node name, a
// zero separator, and the key, pushed through a splitmix64 finalizer. FNV's
// offset basis and prime are fixed by specification, so scores — and
// therefore placement — are stable across processes, machines and restarts
// (unlike maphash, whose seed is per-process). The finalizer matters: raw
// FNV-1a has weak high-bit avalanche for short inputs that differ only in
// one byte ("sd0" vs "sd1"), which skews the max-score comparison HRW
// performs (measured 2410/1600/990 over 5000 keys on 3 nodes without it).
func score(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node)) //nolint:errcheck // fnv never errors
	h.Write([]byte{0})    //nolint:errcheck
	h.Write([]byte(key))  //nolint:errcheck
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.): a fixed bijection on
// uint64 with strong avalanche, making HRW's argmax comparisons fair.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the node that owns key: the highest HRW score, ties broken
// by name order. ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	if len(r.nodes) == 0 {
		return "", false
	}
	best := r.nodes[0]
	bestScore := score(best, key)
	for _, n := range r.nodes[1:] {
		if s := score(n, key); s > bestScore {
			best, bestScore = n, s
		}
	}
	return best, true
}

// Rank returns every node ordered by descending HRW score for key — the
// key's preference list. Rank[0] is the owner; when a node dies its keys
// fail over to the next-ranked survivor, which is exactly the owner the
// ring would pick with the dead node removed (the minimal-movement
// property extended to failover).
func (r *Ring) Rank(key string) []string {
	return rank(r.Nodes(), key)
}

// rank sorts nodes, in place, into key's preference list.
func rank(nodes []string, key string) []string {
	sort.SliceStable(nodes, func(i, j int) bool {
		si, sj := score(nodes[i], key), score(nodes[j], key)
		if si != sj {
			return si > sj
		}
		return nodes[i] < nodes[j]
	})
	return nodes
}

// BoundedOwners places keys by bounded-load HRW: in key order, each key
// goes to the highest-ranked node in its Rank that holds fewer than
// ⌈len(keys)/N⌉ keys so far. A key therefore stays with its HRW owner
// while that owner has room, and no node ends up with more than its even
// share. Plain HRW is fair only in expectation; over a few dozen keys it
// can be badly skewed (48 fragment keys on 4 nodes: 22/10/9/7), which
// matters when each node's keys run as one unit that cannot be rebalanced
// once started. The result is deterministic for a given membership and
// key list, and nil on an empty ring.
func (r *Ring) BoundedOwners(keys []string) []string {
	members := r.Nodes()
	if len(members) == 0 {
		return nil
	}
	limit := (len(keys) + len(members) - 1) / len(members)
	load := make(map[string]int, len(members))
	owners := make([]string, len(keys))
	prefs := make([]string, len(members))
	for i, k := range keys {
		copy(prefs, members)
		for _, node := range rank(prefs, k) {
			if load[node] < limit {
				owners[i] = node
				load[node]++
				break
			}
		}
	}
	return owners
}
