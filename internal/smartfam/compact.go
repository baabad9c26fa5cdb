package smartfam

import (
	"bytes"
	"errors"
	"fmt"
)

// compactAttempts bounds how often CompactLog re-reads a log that kept
// growing under it before it gives up until the next call.
const compactAttempts = 8

// CompactLog rewrites a module's log file, dropping request/response pairs
// that have completed and keeping only requests still awaiting a response
// (and nothing else). Module log files otherwise grow without bound — one
// line per parameter write and one per result, forever. Corrupt lines are
// dropped too: compaction doubles as the log's repair pass.
//
// The rewrite is one conditional replace (ReplaceFS, which the share must
// have): the survivors replace the log only while it still has the size
// that was read, so a request appended meanwhile sends CompactLog back to
// read on, and a crash leaves the old log or the new one whole. Readers
// see the new identity and restart from offset zero (DESIGN §5j). A log
// with nothing to drop — no answered pair, corrupt line or torn tail — is
// left alone, so its readers keep their place; replaced reports whether
// the log was rewritten.
func (r *Registry) CompactLog(module string) (kept int, replaced bool, err error) {
	r.mu.Lock()
	_, ok := r.modules[module]
	r.mu.Unlock()
	if !ok {
		return 0, false, fmt.Errorf("%w: %q", ErrUnknownModule, module)
	}
	logName := LogName(module)
	rfs, ok := r.fs.(ReplaceFS)
	if !ok {
		return 0, false, fmt.Errorf("smartfam: compacting %s: the share cannot replace a file atomically", logName)
	}
	// One compactor at a time: then only appends change the log between
	// its read and its replace, so an unchanged size is an unchanged log,
	// and a retry reads on from where the last read stopped.
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	var (
		recs    []Record
		corrupt int
	)
	cur := &logCursor{fs: r.fs, name: logName, corrupt: func(n int) { corrupt += n }}
	for range compactAttempts {
		size, id, err := statLog(r.fs, logName)
		if err != nil {
			return 0, false, err
		}
		if cur.look(size, id) {
			recs, corrupt = recs[:0], 0
		}
		if size == 0 {
			return 0, false, nil
		}
		if _, err := cur.read(size, func(batch []Record) { recs = append(recs, batch...) }); err != nil {
			return 0, false, err
		}
		keep, kept := survivors(recs)
		if kept == len(recs) && corrupt == 0 && !cur.torn {
			return kept, false, nil
		}
		err = rfs.ReplaceIf(logName, keep, size)
		if !errors.Is(err, ErrLogChanged) {
			return kept, err == nil, err
		}
	}
	return 0, false, fmt.Errorf("smartfam: compacting %s: %w %d times", logName, ErrLogChanged, compactAttempts)
}

// survivors returns the records of a log that compaction keeps,
// re-encoded, and how many there are. A request is answered when a
// response with its ID follows it; a request after its ID's last response
// — a resubmit after a queue-full shed — is still pending.
func survivors(recs []Record) ([]byte, int) {
	lastResp := make(map[string]int)
	for i, rec := range recs {
		if rec.Kind == KindResponse {
			lastResp[rec.ID] = i
		}
	}
	var keep bytes.Buffer
	kept := 0
	for i, rec := range recs {
		if last, answered := lastResp[rec.ID]; rec.Kind == KindRequest && (!answered || i > last) {
			line, _ := rec.Marshal() // it parsed, so it re-encodes
			keep.Write(line)
			kept++
		}
	}
	return keep.Bytes(), kept
}

// CompactAll compacts every registered module's log and returns the number
// of logs it replaced; a log with nothing to drop is not counted.
func (r *Registry) CompactAll() (int, error) {
	n := 0
	for _, name := range r.Names() {
		_, replaced, err := r.CompactLog(name)
		if err != nil {
			return n, err
		}
		if replaced {
			n++
		}
	}
	return n, nil
}
