package fleet

import (
	"context"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"time"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// ChunkSummer is the optional remote-checksum fast path for scrub
// verification: a share that can checksum a byte range server-side (the
// nfs client and pool both can) lets the scrubber compare replicas without
// dragging their bytes across the wire. Shares without it are verified by
// a full read.
type ChunkSummer interface {
	ChunkSum(name string, off int64, n int) (crc uint32, summed int, err error)
}

// scrubChunk is the range size the scrubber checksums at a time; it is also
// the quantum the rate pacer charges.
const scrubChunk = 256 << 10

// ScrubConfig tunes one scrub pass.
type ScrubConfig struct {
	// RateBytesPerSec bounds how many bytes per second the scrubber reads
	// or checksums, so a background pass cannot starve foreground jobs.
	// <= 0 means unpaced.
	RateBytesPerSec int64
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	FilesScanned      int      // share files visited (objects + logs)
	BytesScanned      int64    // bytes read or checksummed
	Objects           int      // distinct replicated objects verified
	CorruptReplicas   int      // object copies that failed CRC verification
	RepairedReplicas  int      // corrupt copies rewritten from an intact one
	ReReplicated      int      // missing copies recreated
	Orphans           int      // object copies on nodes outside the preference list
	CorruptLogRecords int      // complete-but-corrupt smartFAM log lines
	UnreachableNodes  []string // nodes that could not be listed or probed
	Errors            []string // objects the pass could not restore
}

// pacer meters scrub I/O to a byte rate. It accumulates debt and sleeps it
// off in coarse quanta, waking early on ctx cancellation.
type pacer struct {
	rate int64
	debt int64
}

func (p *pacer) pay(ctx context.Context, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.rate <= 0 {
		return nil
	}
	p.debt += n
	// Sleep in >= 10 ms quanta so tiny files do not turn into a busy loop
	// of sub-millisecond timers.
	d := time.Duration(p.debt) * time.Second / time.Duration(p.rate)
	if d < 10*time.Millisecond {
		return nil
	}
	p.debt = 0
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// Scrub walks every share verifying at a bounded byte rate: smartFAM log
// files are parsed for corrupt records, replicated objects are CRC-verified
// copy by copy (remote copies by server-side chunk checksums when the share
// supports it), and any corrupt or missing copy is restored from the first
// intact replica. A second pass over a healthy fleet reports zero repairs.
func (s *Store) Scrub(ctx context.Context, cfg ScrubConfig) (*ScrubReport, error) {
	rep := &ScrubReport{}
	pace := &pacer{rate: cfg.RateBytesPerSec}
	holders := make(map[string][]string) // object -> nodes listing it
	reachable := make(map[string]bool)

	for _, node := range s.Nodes() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		names, err := s.shares[node].List()
		if err != nil {
			rep.UnreachableNodes = append(rep.UnreachableNodes, node)
			continue
		}
		reachable[node] = true
		for _, name := range names {
			switch {
			case strings.HasPrefix(name, ".") || strings.HasSuffix(name, stageSuffix):
				// Heartbeats and in-flight stage files are not scrub targets.
			case strings.HasSuffix(name, ObjectSuffix):
				holders[name] = append(holders[name], node)
			case strings.HasSuffix(name, ".log"):
				if err := s.scrubLog(ctx, pace, node, name, rep); err != nil {
					return rep, err
				}
			}
		}
	}

	objects := make([]string, 0, len(holders))
	for name := range holders {
		objects = append(objects, name)
	}
	sort.Strings(objects)
	for _, name := range objects {
		if err := s.scrubObject(ctx, pace, name, holders[name], reachable, rep); err != nil {
			return rep, err
		}
	}
	sort.Strings(rep.UnreachableNodes)
	return rep, nil
}

// scrubLog parses one smartFAM module log counting corrupt records. Log
// files are per-node working state, not replicated objects, so there is
// nothing to repair — the record CRC already quarantines bad lines — but
// the count surfaces media decay the module path would otherwise absorb
// silently.
func (s *Store) scrubLog(ctx context.Context, pace *pacer, node, name string, rep *ScrubReport) error {
	data, err := smartfam.ReadFrom(s.shares[node], name, 0)
	if err != nil {
		return nil // racing a compaction or removal is not a scrub failure
	}
	rep.FilesScanned++
	rep.BytesScanned += int64(len(data))
	s.reg.Counter(metrics.FleetScrubFiles).Inc()
	s.reg.Counter(metrics.FleetScrubBytes).Add(int64(len(data)))
	_, _, corrupt, perr := smartfam.ParseRecords(data)
	if perr == nil {
		rep.CorruptLogRecords += corrupt
		s.reg.Counter(metrics.FleetScrubCorruptRecord).Add(int64(corrupt))
	}
	return pace.pay(ctx, int64(len(data)))
}

// scrubObject verifies every expected copy of one object and restores the
// broken ones. The first intact copy (full read + trailer verification)
// becomes the reference; remaining copies are compared chunk by chunk
// against it, server-side when the share offers ChunkSum.
func (s *Store) scrubObject(ctx context.Context, pace *pacer, name string, listed []string, reachable map[string]bool, rep *ScrubReport) error {
	rep.Objects++
	expected := s.Replicas(name)
	isExpected := make(map[string]bool, len(expected))
	for _, n := range expected {
		isExpected[n] = true
	}
	for _, n := range listed {
		if !isExpected[n] {
			rep.Orphans++
		}
	}

	var ref []byte // first intact sealed copy
	type fix struct {
		node    string
		corrupt bool
	}
	var fixes []fix
	for _, node := range expected {
		if !reachable[node] {
			continue // copy unverifiable this pass; not counted as missing
		}
		if ref == nil {
			raw, err := smartfam.ReadFrom(s.shares[node], name, 0)
			if err != nil {
				fixes = append(fixes, fix{node: node})
				continue
			}
			rep.FilesScanned++
			rep.BytesScanned += int64(len(raw))
			s.reg.Counter(metrics.FleetScrubFiles).Inc()
			s.reg.Counter(metrics.FleetScrubBytes).Add(int64(len(raw)))
			if err := pace.pay(ctx, int64(len(raw))); err != nil {
				return err
			}
			if _, verr := smartfam.VerifyBlob(raw); verr != nil {
				rep.CorruptReplicas++
				s.reg.Counter(metrics.FleetCorruptReplicas).Inc()
				fixes = append(fixes, fix{node: node, corrupt: true})
				continue
			}
			ref = raw
			continue
		}
		ok, scanned, err := s.matchesRef(ctx, pace, node, name, ref)
		if err != nil {
			return err
		}
		rep.FilesScanned++
		rep.BytesScanned += scanned
		s.reg.Counter(metrics.FleetScrubFiles).Inc()
		s.reg.Counter(metrics.FleetScrubBytes).Add(scanned)
		switch {
		case ok:
		case scanned == 0:
			fixes = append(fixes, fix{node: node})
		default:
			rep.CorruptReplicas++
			s.reg.Counter(metrics.FleetCorruptReplicas).Inc()
			fixes = append(fixes, fix{node: node, corrupt: true})
		}
	}
	if ref == nil {
		if len(fixes) > 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: no intact replica", name))
		}
		return nil
	}
	for _, f := range fixes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.writeReplica(s.shares[f.node], name, ref); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: rewrite on %s: %v", name, f.node, err))
			continue
		}
		if f.corrupt {
			rep.RepairedReplicas++
		} else {
			rep.ReReplicated++
		}
		s.reg.Counter(metrics.FleetScrubRepairs).Inc()
	}
	return nil
}

// matchesRef reports whether node's copy of name is byte-identical to the
// reference sealed blob. scanned is 0 when the copy is missing. When the
// share implements ChunkSummer only checksums cross the wire; otherwise the
// copy is read back in full.
func (s *Store) matchesRef(ctx context.Context, pace *pacer, node, name string, ref []byte) (ok bool, scanned int64, err error) {
	fs := s.shares[node]
	if cs, can := fs.(ChunkSummer); can {
		size, _, serr := fs.Stat(name)
		if serr != nil {
			return false, 0, nil
		}
		if size != int64(len(ref)) {
			return false, size, pace.pay(ctx, size)
		}
		for off := int64(0); off < size; off += scrubChunk {
			n := min(int64(scrubChunk), size-off)
			crc, summed, cerr := cs.ChunkSum(name, off, int(n))
			if cerr != nil || int64(summed) != n {
				return false, scanned, pace.pay(ctx, scanned)
			}
			scanned += n
			if crc != crc32.ChecksumIEEE(ref[off:off+n]) {
				return false, scanned, pace.pay(ctx, scanned)
			}
			if perr := pace.pay(ctx, n); perr != nil {
				return false, scanned, perr
			}
		}
		return true, scanned, nil
	}
	raw, rerr := smartfam.ReadFrom(fs, name, 0)
	if rerr != nil {
		return false, 0, nil
	}
	scanned = int64(len(raw))
	if perr := pace.pay(ctx, scanned); perr != nil {
		return false, scanned, perr
	}
	if len(raw) != len(ref) {
		return false, scanned, nil
	}
	return string(raw) == string(ref), scanned, nil
}
