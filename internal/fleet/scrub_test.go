package fleet

import (
	"context"
	"hash/crc32"
	"io"
	"sync/atomic"
	"testing"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

func TestScrubCleanFleetReportsNoRepairs(t *testing.T) {
	s, _ := testStore(t, 3, 2)
	ctx := context.Background()
	set, err := s.PutFile(ctx, "corpus", []byte("some replicated words here to scrub over and over"), 16)
	if err != nil {
		t.Fatalf("PutFile: %v", err)
	}
	rep, err := s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.Objects != len(set.Objects) {
		t.Fatalf("Objects = %d, want %d", rep.Objects, len(set.Objects))
	}
	if rep.RepairedReplicas != 0 || rep.ReReplicated != 0 || rep.CorruptReplicas != 0 || len(rep.Errors) != 0 {
		t.Fatalf("clean scrub did work: %+v", rep)
	}
	if rep.FilesScanned == 0 || rep.BytesScanned == 0 {
		t.Fatalf("scrub scanned nothing: %+v", rep)
	}
}

func TestScrubRepairsCorruptReplica(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, []byte("scrub target payload with enough bytes to damage")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	victim := s.Replicas(name)[1]
	corruptCopy(t, shares[victim], name)

	rep, err := s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptReplicas != 1 || rep.RepairedReplicas != 1 {
		t.Fatalf("first scrub = %+v, want 1 corrupt found and repaired", rep)
	}
	if v := s.reg.Counter(metrics.FleetScrubRepairs).Value(); v != 1 {
		t.Fatalf("fleet.scrub.repairs = %d, want 1", v)
	}

	// The fleet is healthy again: a second pass finds nothing.
	rep, err = s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("second Scrub: %v", err)
	}
	if rep.RepairedReplicas != 0 || rep.ReReplicated != 0 || rep.CorruptReplicas != 0 {
		t.Fatalf("second scrub still found damage: %+v", rep)
	}
}

func TestScrubReReplicatesMissingCopy(t *testing.T) {
	s, shares := testStore(t, 3, 2)
	ctx := context.Background()
	const name = "doc.00000.frag"
	if err := s.Put(ctx, name, []byte("under-replicated payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	victim := s.Replicas(name)[0]
	if err := shares[victim].Remove(name); err != nil {
		t.Fatalf("remove copy: %v", err)
	}
	rep, err := s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.ReReplicated != 1 {
		t.Fatalf("scrub = %+v, want 1 re-replication", rep)
	}
	raw, err := smartfam.ReadFrom(shares[victim], name, 0)
	if err != nil {
		t.Fatalf("copy not restored: %v", err)
	}
	if _, err := smartfam.VerifyBlob(raw); err != nil {
		t.Fatalf("restored copy corrupt: %v", err)
	}
}

func TestScrubCountsCorruptLogRecords(t *testing.T) {
	s, shares := testStore(t, 2, 1)
	ctx := context.Background()
	node := s.Nodes()[0]
	rec := smartfam.Record{Kind: smartfam.KindRequest, ID: "abcd1234", Payload: []byte("{}")}
	line, err := rec.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := shares[node].Append("wordcount.log", line); err != nil {
		t.Fatalf("append record: %v", err)
	}
	// A complete line whose checksum cannot match: counted, not repaired.
	if err := shares[node].Append("wordcount.log", []byte("REQ feedbeef - bm90cmVhbA== 00000000\n")); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	rep, err := s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptLogRecords != 1 {
		t.Fatalf("CorruptLogRecords = %d, want 1", rep.CorruptLogRecords)
	}
	if v := s.reg.Counter(metrics.FleetScrubCorruptRecord).Value(); v != 1 {
		t.Fatalf("fleet.scrub.corrupt_records = %d, want 1", v)
	}
}

// summingFS wraps an FS with a local ChunkSum so the test can prove the
// scrubber prefers server-side checksums over full reads.
type summingFS struct {
	smartfam.FS
	sums atomic.Int64
}

func (s *summingFS) ChunkSum(name string, off int64, n int) (uint32, int, error) {
	s.sums.Add(1)
	buf := make([]byte, n)
	read, err := s.FS.ReadAt(name, buf, off)
	if err != nil && err != io.EOF {
		return 0, 0, err
	}
	return crc32.ChecksumIEEE(buf[:read]), read, nil
}

func TestScrubUsesChunkSumFastPath(t *testing.T) {
	shares := map[string]smartfam.FS{
		"a-sd": &summingFS{FS: smartfam.DirFS(t.TempDir())},
		"b-sd": &summingFS{FS: smartfam.DirFS(t.TempDir())},
	}
	s := NewStore(shares, 2, metrics.NewRegistry())
	ctx := context.Background()
	if err := s.Put(ctx, "doc.00000.frag", []byte("checksummed remotely")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rep, err := s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.RepairedReplicas != 0 || rep.ReReplicated != 0 || rep.CorruptReplicas != 0 {
		t.Fatalf("clean scrub did work: %+v", rep)
	}
	total := shares["a-sd"].(*summingFS).sums.Load() + shares["b-sd"].(*summingFS).sums.Load()
	if total == 0 {
		t.Fatalf("scrub never used the ChunkSum fast path")
	}

	// And the fast path still catches a flipped bit.
	corruptCopy(t, shares["b-sd"].(*summingFS).FS, "doc.00000.frag")
	victimRank := -1
	for i, n := range s.Replicas("doc.00000.frag") {
		if n == "b-sd" {
			victimRank = i
		}
	}
	rep, err = s.Scrub(ctx, ScrubConfig{})
	if err != nil {
		t.Fatalf("Scrub after corruption: %v", err)
	}
	if rep.CorruptReplicas != 1 || rep.RepairedReplicas != 1 {
		t.Fatalf("scrub after corruption (victim rank %d) = %+v, want 1 repaired", victimRank, rep)
	}
}

func TestScrubHonorsCancellation(t *testing.T) {
	s, _ := testStore(t, 3, 2)
	if _, err := s.PutFile(context.Background(), "corpus", []byte("cancel me mid pass please thanks"), 8); err != nil {
		t.Fatalf("PutFile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Scrub(ctx, ScrubConfig{RateBytesPerSec: 1}); err == nil {
		t.Fatalf("Scrub with cancelled ctx succeeded")
	}
}
