package smartfam

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
)

// The daemon's write-ahead journal makes smartFAM invocation exactly-once
// across daemon crashes. Each request moves through three journaled
// states, appended to a file on the SD node's LOCAL disk (never the
// share — the journal must survive exactly the failures the share does
// not):
//
//	INTENT <id> <module> <offset> <crc>           once the scheduler has
//	                                               queued it (a request
//	                                               shed by a full queue
//	                                               never gets one)
//	DONE   <id> <module> <status> =<payload> <crc> after the module ran,
//	                                               before the response is
//	                                               appended to the log
//	RESP   <id> <crc>                              after the response
//	                                               record landed
//
// On restart the replay classifies every request:
//
//   - RESP present: fully finished; kept only as a dedupe cache entry.
//   - DONE without RESP: the module ran but the response may never have
//     reached the log — re-append the CACHED payload, never re-execute.
//   - INTENT without DONE: the module may not have run (or was aborted
//     mid-flight by the crash) — re-run it; module executions are
//     expected to be idempotent under abort, as in any redo log.
//
// Journaling DONE *before* the response append is what closes the
// duplicate-execution window: a crash between execution and response
// replays the cached result instead of running the module twice.
//
// Like the module logs, journal lines are newline-guarded and CRC'd, and a
// DONE payload is the log record's escaped raw payload field, so a torn
// tail from the crash itself is skipped (and counted) on replay.
// Writes go straight to the fd with no userspace buffering: the failure
// model is a daemon crash, not an OS crash, so page cache is durable
// enough and no fsync is paid per record.

// Journal entry kinds.
const (
	journalIntent = "INTENT"
	journalDone   = "DONE"
	journalResp   = "RESP"
)

// JournalEntry is one replayed journal line.
type JournalEntry struct {
	Kind    string
	ID      string
	Module  string
	Offset  int64 // INTENT: byte offset of the request record in its log
	Status  string
	Payload []byte
}

// CachedResponse is a completed execution's result, kept for crash replay
// and for answering duplicate (host-retried) requests without re-running
// the module.
type CachedResponse struct {
	Module  string
	Status  string
	Payload []byte
}

// JournalState is the classification of a journal at open time.
type JournalState struct {
	// Completed maps request ID -> cached response for every execution
	// that finished (DONE journaled), acked or not.
	Completed map[string]CachedResponse
	// Acked holds IDs whose response append was confirmed (RESP).
	Acked map[string]bool
	// Intents holds INTENT entries with no DONE: possibly-unexecuted
	// requests the recovery pass must re-run.
	Intents map[string]JournalEntry
	// Corrupt counts unparseable lines skipped during replay (typically
	// the torn tail of the crashed writer).
	Corrupt int
}

// Journal is the daemon's crash-recovery intent log. All methods are safe
// for concurrent use and nil-receiver safe (a nil journal journals
// nothing), so the daemon's hot path needs no conditionals.
//
// The journal talks to its directory through the same FS abstraction as
// the share, so faultfs can inject torn appends and transient errors into
// the journal itself — the chaos suite exercises recovery from a journal
// that fails, not just a share that fails. Production use stays on the SD
// node's local disk via DirFS.
type Journal struct {
	mu   sync.Mutex
	fsys FS
	name string
}

// maxCachedResponses bounds the dedupe/replay cache carried across
// restarts; beyond it the oldest completed entries are dropped (their
// requests can then only be deduped while their response record is still
// visible in the module log).
const maxCachedResponses = 4096

// OpenJournal replays the journal at path (if any), compacts it — acked
// entries beyond the cache cap and superseded lines are dropped — and
// opens it for appending. The returned state seeds the daemon's recovery
// pass and dedupe cache. It is OpenJournalFS over a DirFS rooted at the
// path's directory.
func OpenJournal(path string) (*Journal, *JournalState, error) {
	return OpenJournalFS(DirFS(filepath.Dir(path)), filepath.Base(path))
}

// OpenJournalFS is OpenJournal over an arbitrary FS: the journal lives in
// the file `name` inside fsys. Tests wrap fsys in faultfs to exercise
// journal-write failures.
func OpenJournalFS(fsys FS, name string) (*Journal, *JournalState, error) {
	state := &JournalState{
		Completed: make(map[string]CachedResponse),
		Acked:     make(map[string]bool),
		Intents:   make(map[string]JournalEntry),
	}
	data, err := ReadFrom(fsys, name, 0)
	if err != nil && !errors.Is(err, ErrNotExist) {
		return nil, nil, fmt.Errorf("smartfam: reading journal %s: %w", name, err)
	}
	var order []string // completed IDs in first-DONE order, for the cache cap
	if len(data) > 0 {
		entries, corrupt := parseJournal(data)
		state.Corrupt = corrupt
		for _, e := range entries {
			switch e.Kind {
			case journalIntent:
				if _, done := state.Completed[e.ID]; !done {
					state.Intents[e.ID] = e
				}
			case journalDone:
				if _, seen := state.Completed[e.ID]; !seen {
					order = append(order, e.ID)
				}
				state.Completed[e.ID] = CachedResponse{Module: e.Module, Status: e.Status, Payload: e.Payload}
				delete(state.Intents, e.ID)
			case journalResp:
				state.Acked[e.ID] = true
			}
		}
	}
	// Cap the carried cache, oldest first.
	for len(order) > maxCachedResponses {
		id := order[0]
		order = order[1:]
		delete(state.Completed, id)
		delete(state.Acked, id)
	}

	// Rewrite compacted: live intents, completed entries (with their ack
	// marks), nothing else. Renaming over the old file keeps a crash
	// during compaction recoverable (the old journal stays intact).
	tmp := name + ".tmp"
	var buf bytes.Buffer
	for _, e := range state.Intents {
		buf.Write(journalLine(journalIntent, e.ID, e.Module, strconv.FormatInt(e.Offset, 10)))
	}
	for _, id := range order {
		c := state.Completed[id]
		buf.Write(doneLine(id, c.Module, c.Status, c.Payload))
		if state.Acked[id] {
			buf.Write(journalLine(journalResp, id))
		}
	}
	if err := fsys.Create(tmp); err != nil {
		return nil, nil, fmt.Errorf("smartfam: compacting journal %s: %w", name, err)
	}
	if err := fsys.Append(tmp, buf.Bytes()); err != nil {
		return nil, nil, fmt.Errorf("smartfam: compacting journal %s: %w", name, err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return nil, nil, fmt.Errorf("smartfam: compacting journal %s: %w", name, err)
	}
	return &Journal{fsys: fsys, name: name}, state, nil
}

// Path returns the journal's file name within its FS.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.name
}

// Intent records that the daemon is about to dispatch a request. offset is
// the byte position of the request record in its module log (diagnostic:
// recovery locates requests by ID, surviving compaction).
func (j *Journal) Intent(id, module string, offset int64) error {
	return j.append(journalLine(journalIntent, id, module, strconv.FormatInt(offset, 10)))
}

// Done records a finished execution and its result, before the response is
// appended to the module log.
func (j *Journal) Done(id, module, status string, payload []byte) error {
	return j.append(doneLine(id, module, status, payload))
}

// Resp records that the response append for id succeeded.
func (j *Journal) Resp(id string) error {
	return j.append(journalLine(journalResp, id))
}

// Close releases the journal. FS-backed appends hold no file descriptor
// between writes, so Close is bookkeeping only; it is kept so daemon
// shutdown reads the same for any future fd-holding implementation.
func (j *Journal) Close() error {
	return nil
}

func (j *Journal) append(line []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	//mcsdlint:allow lockhold -- serializing record appends is this lock's whole job: the share Append is the critical section, and nothing else contends on j.mu
	if err := j.fsys.Append(j.name, line); err != nil {
		return fmt.Errorf("smartfam: journal append: %w", err)
	}
	return nil
}

// journalLine builds one newline-guarded, CRC-trailed journal line in the
// module-log line shape (wire.go).
func journalLine(fields ...string) []byte {
	return sealLine(appendFields(nil, fields...))
}

// doneLine builds a DONE line, its payload in the module log's escaped raw
// payload field.
func doneLine(id, module, status string, payload []byte) []byte {
	b := make([]byte, 0, len(id)+len(module)+len(payload)+len(payload)/64+32)
	return sealLine(appendPayload(appendFields(b, journalDone, id, module, status), payload))
}

// parseJournal decodes every valid journal line, skipping (and counting)
// corrupt ones — the torn tail of a crashed daemon must not poison replay.
// An unterminated last line is parsed too: no later append will come to
// complete it, since replay runs before the journal is appended to again.
func parseJournal(data []byte) (entries []JournalEntry, corrupt int) {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		e, err := parseJournalLine(line)
		if err != nil {
			corrupt++
			continue
		}
		entries = append(entries, e)
	}
	return entries, corrupt
}

// parseJournalLine decodes one journal line: CRC first, then the fields
// its kind calls for, the last one running up to the CRC field.
func parseJournalLine(line []byte) (JournalEntry, error) {
	body, err := openLine(line)
	if err != nil {
		return JournalEntry{}, err
	}
	kind, rest, ok := cutField(body)
	if !ok {
		return JournalEntry{}, errLineFields
	}
	var e JournalEntry
	switch string(kind) {
	case journalIntent:
		id, rest, ok1 := cutField(rest)
		module, off, ok2 := cutField(rest)
		if !ok1 || !ok2 {
			return JournalEntry{}, errLineFields
		}
		if e.Offset, err = strconv.ParseInt(string(off), 10, 64); err != nil {
			return JournalEntry{}, errLineFields
		}
		e.Kind, e.ID, e.Module = journalIntent, string(id), string(module)
	case journalDone:
		id, rest, ok1 := cutField(rest)
		module, rest, ok2 := cutField(rest)
		status, payload, ok3 := cutField(rest)
		if !ok1 || !ok2 || !ok3 {
			return JournalEntry{}, errLineFields
		}
		switch string(status) {
		case StatusOK:
			e.Status = StatusOK
		case StatusError:
			e.Status = StatusError
		default:
			return JournalEntry{}, errLineStatus
		}
		if e.Payload, err = decodePayload(payload); err != nil {
			return JournalEntry{}, err
		}
		e.Kind, e.ID, e.Module = journalDone, string(id), string(module)
	case journalResp:
		if len(rest) == 0 || bytes.IndexByte(rest, ' ') >= 0 {
			return JournalEntry{}, errLineFields
		}
		e.Kind, e.ID = journalResp, string(rest)
	default:
		return JournalEntry{}, errLineKind
	}
	return e, nil
}
