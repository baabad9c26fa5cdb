package fleet

import (
	"fmt"
	"slices"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("data/corpus.txt#%d", i)
	}
	return keys
}

func TestRingDeterministicAcrossInstances(t *testing.T) {
	// Two independently built rings — the stand-in for a coordinator
	// restart — must agree on every placement, regardless of join order.
	a := NewRing("sd0", "sd1", "sd2", "sd3")
	b := NewRing("sd3", "sd1", "sd0", "sd2")
	for _, k := range ringKeys(500) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("key %q: owners diverge (%s vs %s)", k, oa, ob)
		}
	}
}

func TestRingGoldenPlacement(t *testing.T) {
	// Pinned placements guard the hash function itself: if the score
	// calculation ever changes, every deployed fleet's placement would
	// shuffle on upgrade. These values were produced by this implementation
	// and must never drift.
	r := NewRing("sd0", "sd1", "sd2")
	golden := map[string]string{
		"data/corpus.txt#0": "sd2",
		"data/corpus.txt#1": "sd0",
		"data/corpus.txt#2": "sd2",
		"data/corpus.txt#3": "sd2",
		"data/corpus.txt#4": "sd2",
	}
	for k, want := range golden {
		got, ok := r.Owner(k)
		if !ok {
			t.Fatalf("empty ring?")
		}
		if got != want {
			t.Fatalf("Owner(%q) = %s, want pinned %s (HRW hash changed!)", k, got, want)
		}
	}
}

func TestRingJoinMovesOnlyToNewNode(t *testing.T) {
	const n = 2000
	keys := ringKeys(n)
	r := NewRing("sd0", "sd1", "sd2", "sd3")
	before := make(map[string]string, n)
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}
	r = NewRing("sd0", "sd1", "sd2", "sd3", "sd4")
	moved := 0
	for _, k := range keys {
		after, _ := r.Owner(k)
		if after != before[k] {
			moved++
			if after != "sd4" {
				t.Fatalf("key %q moved %s -> %s, not to the joining node", k, before[k], after)
			}
		}
	}
	// Expected movement is n/5; allow generous slack for hash variance but
	// stay well under the 1/N-ish bound the issue asks for.
	if moved == 0 || moved > n/5+n/10 {
		t.Fatalf("join moved %d of %d keys, want ~%d", moved, n, n/5)
	}
}

func TestRingLeaveMovesOnlyOrphans(t *testing.T) {
	const n = 2000
	keys := ringKeys(n)
	r := NewRing("sd0", "sd1", "sd2", "sd3")
	before := make(map[string]string, n)
	owned := 0
	for _, k := range keys {
		before[k], _ = r.Owner(k)
		if before[k] == "sd2" {
			owned++
		}
	}
	r = NewRing("sd0", "sd1", "sd3")
	moved := 0
	for _, k := range keys {
		after, _ := r.Owner(k)
		if before[k] == "sd2" {
			moved++
			if after == "sd2" {
				t.Fatalf("key %q still owned by removed node", k)
			}
		} else if after != before[k] {
			t.Fatalf("key %q moved %s -> %s though its owner survived", k, before[k], after)
		}
	}
	if moved != owned {
		t.Fatalf("moved %d keys, removed node owned %d", moved, owned)
	}
}

func TestRingRankConsistentWithFailover(t *testing.T) {
	// Rank's second choice must equal the owner of a ring without the
	// first choice — failover lands exactly where a re-placement would.
	full := NewRing("sd0", "sd1", "sd2", "sd3")
	for _, k := range ringKeys(200) {
		rank := full.Rank(k)
		if len(rank) != 4 {
			t.Fatalf("rank length %d", len(rank))
		}
		if owner, _ := full.Owner(k); rank[0] != owner {
			t.Fatalf("rank[0] %s != owner %s", rank[0], owner)
		}
		var rest []string
		for _, n := range full.Nodes() {
			if n != rank[0] {
				rest = append(rest, n)
			}
		}
		survivors := NewRing(rest...)
		if next, _ := survivors.Owner(k); next != rank[1] {
			t.Fatalf("key %q: rank[1] = %s, survivors' owner = %s", k, rank[1], next)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const n = 5000
	r := NewRing("sd0", "sd1", "sd2", "sd3", "sd4")
	load := map[string]int{}
	for _, k := range ringKeys(n) {
		o, _ := r.Owner(k)
		load[o]++
	}
	mean := n / 5
	for node, c := range load {
		if c < mean*6/10 || c > mean*14/10 {
			t.Fatalf("node %s owns %d keys, mean %d: unbalanced %v", node, c, mean, load)
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing()
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring returned an owner")
	}
	r = NewRing("sd1", "sd0", "sd1") // duplicate
	if got := r.Nodes(); len(got) != 2 || got[0] != "sd0" || got[1] != "sd1" {
		t.Fatalf("Nodes() = %v", got)
	}
	if o, ok := NewRing("sd1").Owner("k"); !ok || o != "sd1" {
		t.Fatalf("Owner = %s,%v", o, ok)
	}
}

func TestRingRankReplicaSetsDisjointAndComplete(t *testing.T) {
	// Rank must be a permutation of the membership: R>1 replica sets are its
	// prefix, so every copy of a key lands on a distinct node.
	r := NewRing("sd0", "sd1", "sd2", "sd3", "sd4")
	for _, k := range ringKeys(300) {
		rank := r.Rank(k)
		if len(rank) != 5 {
			t.Fatalf("Rank(%q) has %d entries, want 5", k, len(rank))
		}
		seen := make(map[string]bool, len(rank))
		for _, n := range rank {
			if seen[n] {
				t.Fatalf("Rank(%q) = %v repeats node %s", k, rank, n)
			}
			seen[n] = true
		}
	}
}

func TestRingLeaveMovesBoundedReplicaSlots(t *testing.T) {
	// With R=2 over 5 nodes, removing one node may relocate only the
	// replica slots that node held — it appears in a key's top-2 with
	// probability 2/5 and holds at most one of the two slots, so 1/5 of all
	// slots in expectation — and every slot on a survivor must stay exactly
	// where it was.
	const n, repl = 2000, 2
	nodes := []string{"sd0", "sd1", "sd2", "sd3", "sd4"}
	before := NewRing(nodes...)
	after := NewRing("sd0", "sd1", "sd3", "sd4")
	moved, held := 0, 0
	for _, k := range ringKeys(n) {
		b := before.Rank(k)[:repl]
		a := after.Rank(k)[:repl]
		as := map[string]bool{a[0]: true, a[1]: true}
		for _, node := range b {
			if node == "sd2" {
				moved++ // this slot had to move: its node is gone
				continue
			}
			held++
			if !as[node] {
				t.Fatalf("key %q: survivor replica %s evicted (before %v, after %v)", k, node, b, a)
			}
		}
	}
	// Expectation: 1/5 of all slots. Allow generous slack.
	total := n * repl
	if lo, hi := total*15/100, total*25/100; moved < lo || moved > hi {
		t.Fatalf("%d of %d replica slots moved, want about %d (1/5)", moved, total, total/5)
	}
}

// TestRingBoundedOwners checks bounded-load placement: deterministic
// across instances and join orders, no node past ⌈keys/N⌉, and every key
// on its HRW owner whenever that owner still had room when the key came.
func TestRingBoundedOwners(t *testing.T) {
	for _, tc := range []struct{ keys, nodes int }{{48, 4}, {9, 8}, {13, 3}, {200, 5}, {3, 4}, {0, 2}} {
		names := make([]string, tc.nodes)
		for i := range names {
			names[i] = fmt.Sprintf("sd%d", i)
		}
		r := NewRing(names...)
		reversed := slices.Clone(names)
		slices.Reverse(reversed)
		rev := NewRing(reversed...)
		keys := ringKeys(tc.keys)
		owners := r.BoundedOwners(keys)
		if again := rev.BoundedOwners(keys); fmt.Sprint(again) != fmt.Sprint(owners) {
			t.Fatalf("%d keys on %d nodes: placement depends on the instance:\n%v\n%v", tc.keys, tc.nodes, owners, again)
		}
		limit := (tc.keys + tc.nodes - 1) / tc.nodes
		load := map[string]int{}
		for i, k := range keys {
			if owner, _ := r.Owner(k); load[owner] < limit && owners[i] != owner {
				t.Fatalf("%d keys on %d nodes: key %q went to %s while its owner %s had room", tc.keys, tc.nodes, k, owners[i], owner)
			}
			load[owners[i]]++
			if load[owners[i]] > limit {
				t.Fatalf("%d keys on %d nodes: %s holds %d keys, cap %d", tc.keys, tc.nodes, owners[i], load[owners[i]], limit)
			}
		}
	}
	if NewRing().BoundedOwners(ringKeys(3)) != nil {
		t.Fatal("empty ring placed keys")
	}
}

// TestRingGoldenBoundedPlacement pins the fleet_wc shape: perfbench's 48
// range keys on its four nodes. Plain HRW skews them 22/10/9/7 (sd3 would
// run 1.8× its share as one bundle); bounded-load placement evens them.
func TestRingGoldenBoundedPlacement(t *testing.T) {
	r := NewRing("sd0", "sd1", "sd2", "sd3")
	keys := ringKeys(48)
	plain, bounded := map[string]int{}, map[string]int{}
	for i, owner := range r.BoundedOwners(keys) {
		o, _ := r.Owner(keys[i])
		plain[o]++
		bounded[owner]++
	}
	wantPlain := map[string]int{"sd0": 10, "sd1": 9, "sd2": 7, "sd3": 22}
	wantBounded := map[string]int{"sd0": 12, "sd1": 12, "sd2": 12, "sd3": 12}
	if fmt.Sprint(plain) != fmt.Sprint(wantPlain) || fmt.Sprint(bounded) != fmt.Sprint(wantBounded) {
		t.Fatalf("plain HRW %v, bounded %v; want pinned %v and %v", plain, bounded, wantPlain, wantBounded)
	}
}

func TestRingGoldenReplicaPlacement(t *testing.T) {
	// Pinned R=2 preference prefixes: the replicated store depends on these
	// never drifting, or every deployed fleet would lose track of its
	// copies on upgrade.
	r := NewRing("sd0", "sd1", "sd2", "sd3")
	golden := map[string][2]string{
		"corpus.00000.frag": {"sd0", "sd1"},
		"corpus.00001.frag": {"sd1", "sd3"},
		"corpus.00002.frag": {"sd2", "sd3"},
		"corpus.00003.frag": {"sd1", "sd0"},
		"corpus.00004.frag": {"sd1", "sd0"},
	}
	for k, want := range golden {
		rank := r.Rank(k)
		if rank[0] != want[0] || rank[1] != want[1] {
			t.Fatalf("Rank(%q)[:2] = %v, want pinned %v (HRW hash changed!)", k, rank[:2], want)
		}
	}
}
