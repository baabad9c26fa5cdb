package smartfam

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// GenName returns the name of a module log's generation sidecar: a tiny
// file holding a counter that CompactLog bumps on every rewrite. Readers
// (daemon and client) re-read it before consuming from a saved offset; a
// changed generation means their offset points into a different file
// image, so they restart from zero. Size checks alone cannot catch the
// case where a compacted log regrows past a stale offset.
func GenName(module string) string { return module + ".gen" }

// ReadGeneration returns the log's current generation (0 when never
// compacted).
func ReadGeneration(fsys FS, module string) int64 {
	data, err := ReadFrom(fsys, GenName(module), 0)
	if err != nil || len(data) == 0 {
		return 0
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// CompactLog rewrites a module's log file, dropping request/response pairs
// that have completed and keeping only requests still awaiting a response
// (and nothing else). Module log files otherwise grow without bound — one
// line per parameter write and one per result, forever.
//
// Compaction requires quiescence on the share for the module being
// compacted: a host append racing the rewrite can be lost. mcsdd invokes
// it only for idle modules; tests and operators call it directly. Both the
// daemon and the client detect the shrink (size < their offset) and restart
// from offset zero; the daemon's responded-ID set prevents double serving.
func (r *Registry) CompactLog(module string) (kept int, err error) {
	r.mu.Lock()
	_, ok := r.modules[module]
	r.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownModule, module)
	}
	logName := LogName(module)
	data, err := ReadFrom(r.fs, logName, 0)
	if err != nil {
		return 0, err
	}
	// Corrupt lines are dropped by the rewrite: compaction doubles as the
	// log's repair pass.
	recs, _, _, err := ParseRecords(data)
	if err != nil {
		return 0, fmt.Errorf("smartfam: compacting %s: %w", logName, err)
	}
	// A request is answered when a response with its ID follows it; a
	// request after its ID's last response — a resubmit after a queue-full
	// shed — is still pending.
	lastResp := make(map[string]int)
	for i, rec := range recs {
		if rec.Kind == KindResponse {
			lastResp[rec.ID] = i
		}
	}
	var keep bytes.Buffer
	for i, rec := range recs {
		if last, answered := lastResp[rec.ID]; rec.Kind == KindRequest && (!answered || i > last) {
			line, err := rec.Marshal()
			if err != nil {
				return kept, err
			}
			keep.Write(line)
			kept++
		}
	}
	// Bump the generation FIRST so a reader that observes the truncated
	// log always also observes the new generation.
	gen := ReadGeneration(r.fs, module) + 1
	if err := r.fs.Create(GenName(module)); err != nil {
		return kept, err
	}
	if err := r.fs.Append(GenName(module), []byte(strconv.FormatInt(gen, 10))); err != nil {
		return kept, err
	}
	if err := r.fs.Create(logName); err != nil {
		return kept, err
	}
	if keep.Len() > 0 {
		if err := r.fs.Append(logName, keep.Bytes()); err != nil {
			return kept, err
		}
	}
	return kept, nil
}

// CompactAll compacts every registered module's log and returns the number
// of logs rewritten.
func (r *Registry) CompactAll() (int, error) {
	n := 0
	for _, name := range r.Names() {
		if _, err := r.CompactLog(name); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
