package smartfam

import (
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strings"
)

// Record is one entry in a module's log file: either a request carrying
// input parameters from the host (Step 1 of "passing input parameters",
// §IV-A) or a response carrying results or an error back (Step 1 of
// "returning results").
type Record struct {
	// Kind is KindRequest or KindResponse.
	Kind string
	// ID correlates a response with its request.
	ID string
	// Status is StatusOK or StatusError on responses; empty on requests.
	Status string
	// Payload is the parameters (request) or results / error text
	// (response).
	Payload []byte
	// Pos is the byte offset of the record's line within the buffer it
	// was parsed from. It is set by ParseRecords and ignored by Marshal;
	// readers that track file offsets add their own base to it.
	Pos int64
}

// Record kinds and statuses.
const (
	KindRequest  = "REQ"
	KindResponse = "RES"
	StatusOK     = "ok"
	StatusError  = "error"
)

// NewID returns a fresh correlation ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("smartfam: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// recordCRC is the integrity checksum over a record's canonical body (the
// space-joined fields before the CRC field).
func recordCRC(body string) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(body)))
}

// Marshal encodes the record as one log line:
//
//	REQ <id> - <base64-payload> <crc32>\n
//	RES <id> <status> <base64-payload> <crc32>\n
//
// Line-oriented text keeps the log greppable on the share, as the paper's
// debugging workflow expects, while base64 keeps arbitrary payloads safe.
// The trailing CRC32 (over the preceding fields) lets readers detect
// torn or bit-flipped lines on the shared medium. Every line is also
// PREFIXED with a newline: appends to an NFS file are not guaranteed
// atomic under writer crashes, and the leading newline terminates any
// torn tail a previous writer left behind, so the parser can resync on
// this record instead of fusing it with the garbage.
func (r Record) Marshal() ([]byte, error) {
	if r.Kind != KindRequest && r.Kind != KindResponse {
		return nil, fmt.Errorf("smartfam: bad record kind %q", r.Kind)
	}
	if r.ID == "" || strings.ContainsAny(r.ID, " \n") {
		return nil, fmt.Errorf("smartfam: bad record id %q", r.ID)
	}
	status := r.Status
	if r.Kind == KindRequest {
		status = "-"
	} else if status != StatusOK && status != StatusError {
		return nil, fmt.Errorf("smartfam: bad response status %q", r.Status)
	}
	payload := base64.StdEncoding.EncodeToString(r.Payload)
	if payload == "" {
		payload = "-" // sentinel keeping the fixed line shape
	}
	body := r.Kind + " " + r.ID + " " + status + " " + payload
	var b bytes.Buffer
	b.Grow(len(body) + 16)
	b.WriteByte('\n')
	b.WriteString(body)
	b.WriteByte(' ')
	b.WriteString(recordCRC(body))
	b.WriteByte('\n')
	return b.Bytes(), nil
}

// ParseRecords decodes every complete record line in data, skipping a
// trailing partial line (the watcher may observe a log mid-append, and a
// crashed writer can leave a torn tail — both wait, quarantined, until a
// later append terminates them). It returns the records, the number of
// bytes consumed, and the number of complete-but-corrupt lines skipped.
//
// Corrupt lines — torn appends fused with a following record, bit flips
// caught by the CRC, or otherwise malformed text — do NOT fail the batch:
// the parser resyncs at the next newline, counts the casualty, and keeps
// going, so one damaged record cannot wedge a whole module log. Callers
// surface the count through a `smartfam.corrupt_records` metric. err is
// reserved for a line exceeding the maxRecordLine cap.
//
// It walks data in place — no scanner buffer — because the push router
// parses every notify's inline bytes with it.
func ParseRecords(data []byte) (recs []Record, consumed int, corrupt int, err error) {
	off := 0
	for off < len(data) {
		n := bytes.IndexByte(data[off:], '\n')
		if n > maxRecordLine || (n < 0 && len(data)-off > maxRecordLine) {
			return recs, off, corrupt, fmt.Errorf("smartfam: scanning log: line at %d exceeds %d bytes", off, maxRecordLine)
		}
		if n < 0 {
			// Partial final line without newline: leave for next poll.
			break
		}
		line := data[off : off+n]
		lineStart := off
		off += n + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, perr := parseLine(line)
		if perr != nil {
			corrupt++
			continue // resync at the next newline
		}
		rec.Pos = int64(lineStart)
		recs = append(recs, rec)
	}
	return recs, off, corrupt, nil
}

// maxRecordLine bounds one log line, so a newline-free run of garbage is
// reported rather than waited on forever.
const maxRecordLine = 64 << 20

func parseLine(line []byte) (Record, error) {
	fields := strings.Fields(string(line))
	// The CRC field is mandatory: a torn append can truncate a line into
	// something that still splits into plausible fields, and only the
	// checksum reliably rejects it.
	if len(fields) != 5 {
		return Record{}, fmt.Errorf("smartfam: malformed log line %q", line)
	}
	body := strings.Join(fields[:4], " ")
	if recordCRC(body) != fields[4] {
		return Record{}, fmt.Errorf("smartfam: record checksum mismatch on line %q", line)
	}
	rec := Record{Kind: fields[0], ID: fields[1]}
	if rec.Kind != KindRequest && rec.Kind != KindResponse {
		return Record{}, fmt.Errorf("smartfam: unknown record kind %q", rec.Kind)
	}
	if rec.Kind == KindResponse {
		rec.Status = fields[2]
		if rec.Status != StatusOK && rec.Status != StatusError {
			return Record{}, fmt.Errorf("smartfam: unknown response status %q", rec.Status)
		}
	}
	if fields[3] != "-" {
		payload, err := base64.StdEncoding.DecodeString(fields[3])
		if err != nil {
			return Record{}, fmt.Errorf("smartfam: bad payload encoding: %w", err)
		}
		rec.Payload = payload
	}
	return rec, nil
}

// LogName returns the log-file name owned by a module on the share.
func LogName(module string) string { return module + ".log" }

// ModuleFromLog inverts LogName; ok is false for non-log files.
func ModuleFromLog(name string) (string, bool) {
	if !strings.HasSuffix(name, ".log") || len(name) <= 4 {
		return "", false
	}
	return strings.TrimSuffix(name, ".log"), true
}
