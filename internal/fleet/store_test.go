package fleet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// testStore builds a store over n local directory shares.
func testStore(t *testing.T, n, r int) (*Store, map[string]smartfam.FS) {
	t.Helper()
	shares := make(map[string]smartfam.FS, n)
	for i := 0; i < n; i++ {
		name := string(rune('a'+i)) + "-sd"
		shares[name] = smartfam.DirFS(t.TempDir())
	}
	return NewStore(shares, r, metrics.NewRegistry()), shares
}

// corruptCopy flips one payload bit of node's copy of name in place.
func corruptCopy(t *testing.T, fs smartfam.FS, name string) {
	t.Helper()
	raw, err := smartfam.ReadFrom(fs, name, 0)
	if err != nil {
		t.Fatalf("read copy: %v", err)
	}
	raw[len(raw)/3] ^= 0x01
	if err := fs.Create(name); err != nil {
		t.Fatalf("truncate copy: %v", err)
	}
	if err := fs.Append(name, raw); err != nil {
		t.Fatalf("rewrite copy: %v", err)
	}
}

func TestReplicasAreDistinctRankPrefix(t *testing.T) {
	s, _ := testStore(t, 5, 3)
	for _, key := range []string{"alpha.00000.frag", "beta.00001.frag", "gamma.00002.frag"} {
		reps := s.Replicas(key)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%q) = %v, want 3 nodes", key, reps)
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("Replicas(%q) = %v has duplicate %q", key, reps, n)
			}
			seen[n] = true
		}
		if rank := s.ring.Rank(key); rank[0] != reps[0] || rank[1] != reps[1] || rank[2] != reps[2] {
			t.Fatalf("Replicas(%q) = %v is not a prefix of Rank %v", key, reps, rank)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	payload := []byte("the quick brown fox jumps over the lazy dog")
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Exactly R copies, each sealed and intact.
	copies := 0
	for node, fs := range shares {
		raw, err := smartfam.ReadFrom(fs, name, 0)
		if errors.Is(err, smartfam.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatalf("read copy on %s: %v", node, err)
		}
		got, err := smartfam.VerifyBlob(raw)
		if err != nil {
			t.Fatalf("copy on %s fails verification: %v", node, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("copy on %s = %q, want %q", node, got, payload)
		}
		copies++
	}
	if copies != 2 {
		t.Fatalf("object has %d copies, want 2", copies)
	}
	if got := s.reg.Counter(metrics.FleetReplicaWrites).Value(); got != 2 {
		t.Fatalf("fleet.replica_writes = %d, want 2", got)
	}
	got, err := s.Get(ctx, name)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
}

func TestGetReadRepairsCorruptPrimary(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	payload := []byte(strings.Repeat("replicated data ", 64))
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	primary := s.Replicas(name)[0]
	corruptCopy(t, shares[primary], name)

	got, err := s.Get(ctx, name)
	if err != nil {
		t.Fatalf("Get with corrupt primary: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned damaged payload")
	}
	if v := s.reg.Counter(metrics.FleetReadRepairs).Value(); v != 1 {
		t.Fatalf("fleet.read_repairs = %d, want 1", v)
	}
	if v := s.reg.Counter(metrics.FleetCorruptReplicas).Value(); v != 1 {
		t.Fatalf("fleet.corrupt_replicas = %d, want 1", v)
	}
	// The primary's copy was rewritten and verifies again.
	raw, err := smartfam.ReadFrom(shares[primary], name, 0)
	if err != nil {
		t.Fatalf("reread primary: %v", err)
	}
	if _, err := smartfam.VerifyBlob(raw); err != nil {
		t.Fatalf("primary copy still corrupt after read-repair: %v", err)
	}
}

func TestGetReplacesMissingPrimary(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, []byte("hello world")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	primary := s.Replicas(name)[0]
	if err := shares[primary].Remove(name); err != nil {
		t.Fatalf("remove primary copy: %v", err)
	}
	if _, err := s.Get(ctx, name); err != nil {
		t.Fatalf("Get with missing primary: %v", err)
	}
	if v := s.reg.Counter(metrics.FleetReadRepairs).Value(); v != 1 {
		t.Fatalf("fleet.read_repairs = %d, want 1", v)
	}
	if _, err := smartfam.ReadFrom(shares[primary], name, 0); err != nil {
		t.Fatalf("primary copy not restored: %v", err)
	}
}

func TestGetFailsWhenAllCopiesCorrupt(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, []byte("doomed payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, node := range s.Replicas(name) {
		corruptCopy(t, shares[node], name)
	}
	_, err := s.Get(ctx, name)
	if !errors.Is(err, smartfam.ErrCorruptBlob) {
		t.Fatalf("Get with all copies corrupt = %v, want ErrCorruptBlob", err)
	}
}

func TestRepairRestoresFullReplication(t *testing.T) {
	s, shares := testStore(t, 4, 3)
	ctx := context.Background()
	const name = "doc.00000.frag"
	payload := []byte(strings.Repeat("repair me ", 100))
	if err := s.Put(ctx, name, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reps := s.Replicas(name)
	corruptCopy(t, shares[reps[1]], name)
	if err := shares[reps[2]].Remove(name); err != nil {
		t.Fatalf("remove copy: %v", err)
	}

	res, err := s.Repair(ctx, name)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.RepairedCorrupt != 1 || res.ReReplicated != 1 || len(res.Unreachable) != 0 {
		t.Fatalf("Repair = %+v, want 1 corrupt repaired, 1 re-replicated", res)
	}
	for _, node := range reps {
		raw, err := smartfam.ReadFrom(shares[node], name, 0)
		if err != nil {
			t.Fatalf("copy on %s unreadable after repair: %v", node, err)
		}
		if _, err := smartfam.VerifyBlob(raw); err != nil {
			t.Fatalf("copy on %s corrupt after repair: %v", node, err)
		}
	}
	// A second repair finds nothing to do.
	res, err = s.Repair(ctx, name)
	if err != nil {
		t.Fatalf("second Repair: %v", err)
	}
	if res.RepairedCorrupt != 0 || res.ReReplicated != 0 {
		t.Fatalf("second Repair = %+v, want no work", res)
	}
}

func TestRepairFailsWithNoIntactCopy(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, []byte("unlucky")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, node := range s.Replicas(name) {
		corruptCopy(t, shares[node], name)
	}
	if _, err := s.Repair(ctx, name); !errors.Is(err, smartfam.ErrCorruptBlob) {
		t.Fatalf("Repair with all corrupt = %v, want ErrCorruptBlob", err)
	}
	if _, err := s.Repair(ctx, "nosuch.00000.frag"); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("Repair of absent object = %v, want ErrNotExist", err)
	}
}

func TestPutFileSplitsOnWordBoundaries(t *testing.T) {
	s, _ := testStore(t, 3, 2)
	ctx := context.Background()
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("antidisestablishmentarianism ")
		sb.WriteString("word ")
	}
	data := []byte(sb.String())

	set, err := s.PutFile(ctx, "corpus", data, 512)
	if err != nil {
		t.Fatalf("PutFile: %v", err)
	}
	if len(set.Objects) < 2 {
		t.Fatalf("PutFile produced %d fragments, want several", len(set.Objects))
	}
	if set.TotalBytes != int64(len(data)) {
		t.Fatalf("TotalBytes = %d, want %d", set.TotalBytes, len(data))
	}
	var joined []byte
	for i, name := range set.Objects {
		if want := ObjectName("corpus", i); name != want {
			t.Fatalf("Objects[%d] = %q, want %q", i, name, want)
		}
		frag, err := s.Get(ctx, name)
		if err != nil {
			t.Fatalf("Get %s: %v", name, err)
		}
		if i < len(set.Objects)-1 && len(frag) > 0 && !isWordBreak(frag[len(frag)-1]) {
			t.Fatalf("fragment %d does not end on a word break: ...%q", i, frag[len(frag)-10:])
		}
		joined = append(joined, frag...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatalf("fragments do not concatenate to the original input")
	}
}

func TestPutFileEmptyInput(t *testing.T) {
	s, _ := testStore(t, 3, 2)
	set, err := s.PutFile(context.Background(), "empty", nil, 1024)
	if err != nil {
		t.Fatalf("PutFile: %v", err)
	}
	if len(set.Objects) != 1 {
		t.Fatalf("empty PutFile produced %d fragments, want 1", len(set.Objects))
	}
	got, err := s.Get(context.Background(), set.Objects[0])
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty fragment payload = %q", got)
	}
}
