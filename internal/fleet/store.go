package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// Store is the fleet's replicated object tier: each partition fragment is
// written, sealed with a CRC32 trailer, to the top-R nodes of its ring
// preference list. Reads verify the trailer and fall back rank by rank, and
// a bad or missing copy discovered on the way is rewritten from the first
// intact replica (read-repair). The ring's minimal-movement property means
// a node's death promotes exactly its next-ranked survivors — no global
// reshuffle — and a rejoining node finds its old copies still valid.
type Store struct {
	ring   *Ring
	shares map[string]smartfam.FS
	r      int
	reg    *metrics.Registry
}

// ObjectSuffix marks replicated fragment objects on a share.
const ObjectSuffix = ".frag"

// stageSuffix marks an in-flight replica write; readers never see it
// because every Put goes stage-then-rename.
const stageSuffix = ".stage"

// ObjectName returns the share file name of fragment i of base. Names are
// flat (no separators) because smartFAM shares reject path components.
func ObjectName(base string, i int) string {
	return fmt.Sprintf("%s.%05d%s", base, i, ObjectSuffix)
}

// NewStore builds a replicated store over the given node shares with
// replication factor r (clamped to [1, len(shares)]). A nil registry gets a
// private one.
func NewStore(shares map[string]smartfam.FS, r int, reg *metrics.Registry) *Store {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	if r < 1 {
		r = 1
	}
	if r > len(shares) {
		r = len(shares)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Store{
		ring:   NewRing(names...),
		shares: shares,
		r:      r,
		reg:    reg,
	}
}

// Nodes returns the member node names in sorted order.
func (s *Store) Nodes() []string { return s.ring.Nodes() }

// Replicas returns the R nodes holding name, in preference order:
// Replicas(name)[0] is the object's home, the rest are failover ranks.
func (s *Store) Replicas(name string) []string {
	rank := s.ring.Rank(name)
	if len(rank) > s.r {
		rank = rank[:s.r]
	}
	return rank
}

// writeReplica lands a sealed blob on one share atomically: stage file,
// append, rename. A reader that races the rename sees either no object or
// the complete sealed blob, never a prefix.
func (s *Store) writeReplica(fs smartfam.FS, name string, sealed []byte) error {
	stage := name + stageSuffix
	if err := fs.Create(stage); err != nil {
		return err
	}
	if err := fs.Append(stage, sealed); err != nil {
		return err
	}
	return fs.Rename(stage, name)
}

// Put seals payload and writes it to every replica of name. All R writes
// must succeed; a partially placed object is surfaced as an error so the
// caller can retry or scrub.
func (s *Store) Put(ctx context.Context, name string, payload []byte) error {
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("fleet: object name %q must be flat", name)
	}
	sealed := smartfam.SealBlob(payload)
	for _, node := range s.Replicas(name) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.writeReplica(s.shares[node], name, sealed); err != nil {
			return fmt.Errorf("fleet: put %s on %s: %w", name, node, err)
		}
		s.reg.Counter(metrics.FleetReplicaWrites).Inc()
	}
	return nil
}

// Get reads name from its replicas in preference order, verifying the CRC32
// trailer of every copy it touches. The first intact copy wins; any
// worse-ranked copy that was missing or failed verification on the way is
// rewritten from it (read-repair, counted in fleet.read_repairs).
func (s *Store) Get(ctx context.Context, name string) ([]byte, error) {
	replicas := s.Replicas(name)
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fleet: get %s: no nodes", name)
	}
	var bad []string // nodes whose copy needs a rewrite
	var firstErr error
	for _, node := range replicas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		raw, err := smartfam.ReadFrom(s.shares[node], name, 0)
		if err == nil {
			var payload []byte
			payload, err = smartfam.VerifyBlob(raw)
			if err == nil {
				for _, repair := range bad {
					if werr := s.writeReplica(s.shares[repair], name, raw); werr == nil {
						s.reg.Counter(metrics.FleetReadRepairs).Inc()
					}
				}
				return payload, nil
			}
			s.reg.Counter(metrics.FleetCorruptReplicas).Inc()
		}
		bad = append(bad, node)
		if firstErr == nil {
			firstErr = fmt.Errorf("fleet: get %s: no intact replica (first failure on %s): %w", name, node, err)
		}
	}
	return nil, firstErr
}

// RepairResult describes what one Repair pass did to an object.
type RepairResult struct {
	// RepairedCorrupt counts copies that existed but failed CRC
	// verification and were rewritten.
	RepairedCorrupt int
	// ReReplicated counts copies that were missing and were recreated.
	ReReplicated int
	// Unreachable lists holder nodes that could not be checked (transport
	// failure); their copies are left alone.
	Unreachable []string
}

// Repair brings name back to full replication: it classifies every replica
// as intact, corrupt, missing, or unreachable, then rewrites the corrupt
// and missing copies from the first intact one. It fails if no intact
// replica survives.
func (s *Store) Repair(ctx context.Context, name string) (RepairResult, error) {
	var res RepairResult
	var good []byte // first intact sealed blob
	type fix struct {
		node    string
		corrupt bool
	}
	var fixes []fix
	sawCopy := false
	for _, node := range s.Replicas(name) {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		raw, err := smartfam.ReadFrom(s.shares[node], name, 0)
		switch {
		case err == nil:
			sawCopy = true
			if _, verr := smartfam.VerifyBlob(raw); verr == nil {
				if good == nil {
					good = raw
				}
			} else {
				s.reg.Counter(metrics.FleetCorruptReplicas).Inc()
				fixes = append(fixes, fix{node: node, corrupt: true})
			}
		case errors.Is(err, smartfam.ErrNotExist):
			fixes = append(fixes, fix{node: node})
		default:
			res.Unreachable = append(res.Unreachable, node)
		}
	}
	if good == nil {
		if sawCopy {
			return res, fmt.Errorf("fleet: repair %s: every reachable copy is corrupt: %w", name, smartfam.ErrCorruptBlob)
		}
		return res, fmt.Errorf("fleet: repair %s: %w", name, smartfam.ErrNotExist)
	}
	for _, f := range fixes {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := s.writeReplica(s.shares[f.node], name, good); err != nil {
			res.Unreachable = append(res.Unreachable, f.node)
			continue
		}
		if f.corrupt {
			res.RepairedCorrupt++
		} else {
			res.ReReplicated++
		}
		s.reg.Counter(metrics.FleetReReplications).Inc()
	}
	sort.Strings(res.Unreachable)
	return res, nil
}

// FileSet is the replicated form of one input file: an ordered list of
// sealed fragment objects whose payloads concatenate to the original bytes.
type FileSet struct {
	Base       string
	Objects    []string
	TotalBytes int64
}

func isWordBreak(b byte) bool {
	return b == ' ' || b == '\n' || b == '\t' || b == '\r'
}

// PutFile splits data into fragments of roughly fragBytes and replicates
// each one. Cuts land immediately after a whitespace byte (extending the
// fragment forward to the next break if the window ends mid-word), so no
// word straddles a fragment boundary and per-fragment word counts merge
// exactly.
//
//mcsdlint:allow deadexport -- replicated-store entry point; the ROADMAP "one fleet word count" item wires it into mcsdctl
func (s *Store) PutFile(ctx context.Context, base string, data []byte, fragBytes int) (*FileSet, error) {
	if base == "" || strings.ContainsAny(base, "/\\.") {
		return nil, fmt.Errorf("fleet: file base %q must be flat and dot-free", base)
	}
	if fragBytes <= 0 {
		fragBytes = 1 << 20
	}
	set := &FileSet{Base: base, TotalBytes: int64(len(data))}
	for off, i := 0, 0; off < len(data); i++ {
		end := off + fragBytes
		if end >= len(data) {
			end = len(data)
		} else {
			for end < len(data) && !isWordBreak(data[end]) {
				end++
			}
			if end < len(data) {
				end++ // include the break byte in this fragment
			}
		}
		name := ObjectName(base, i)
		if err := s.Put(ctx, name, data[off:end]); err != nil {
			return nil, err
		}
		set.Objects = append(set.Objects, name)
		off = end
	}
	if len(set.Objects) == 0 { // empty input still gets one (empty) fragment
		name := ObjectName(base, 0)
		if err := s.Put(ctx, name, nil); err != nil {
			return nil, err
		}
		set.Objects = append(set.Objects, name)
	}
	return set, nil
}
