package smartfam

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
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

// Every line the smartFAM layer writes — module-log records here, journal
// entries in journal.go — has one shape:
//
//	\n<field> <field> ... [=<payload>] <crc32>\n
//
// Space-separated header fields, optionally a payload field, and a CRC32
// (IEEE, eight lowercase hex digits) over everything between the guard
// newline and the space before the CRC. The payload travels raw: only a
// newline (written `\n`) and the escape byte itself (`\\`) are escaped, so
// a line never holds a raw newline and the byte count barely grows. The
// payload field opens with the sigil '=', which marks this codec: a
// base64-era line, CRC-valid but without it, is malformed rather than
// delivered with its base64 text as the payload.
const (
	payloadSigil  = '='
	payloadEscape = '\\'
)

// Line parse failures. ParseRecords and the journal replay only count them.
var (
	errLineCRC    = errors.New("smartfam: line checksum missing or mismatched")
	errLineFields = errors.New("smartfam: malformed line fields")
	errLineSigil  = errors.New("smartfam: payload field without the '=' sigil")
	errLineEscape = errors.New("smartfam: bad escape in payload")
	errLineKind   = errors.New("smartfam: unknown record kind")
	errLineStatus = errors.New("smartfam: unknown record status")
)

// appendFields begins a line in dst: the guard newline, then the fields
// space-separated.
func appendFields(dst []byte, fields ...string) []byte {
	dst = append(dst, '\n')
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, f...)
	}
	return dst
}

// appendPayload appends p as the line's payload field: a space, the sigil,
// then p with every newline and escape byte escaped and every other byte
// raw.
func appendPayload(dst, p []byte) []byte {
	dst = append(dst, ' ', payloadSigil)
	for {
		i := bytes.IndexAny(p, "\n\\")
		if i < 0 {
			return append(dst, p...)
		}
		esc := byte(payloadEscape)
		if p[i] == '\n' {
			esc = 'n'
		}
		dst = append(append(dst, p[:i]...), payloadEscape, esc)
		p = p[i+1:]
	}
}

// sealLine ends a line appendFields began at line[0]: a space, the CRC
// field, the terminating newline.
func sealLine(line []byte) []byte {
	return append(appendCRC(append(line, ' '), crc32.ChecksumIEEE(line[1:])), '\n')
}

func appendCRC(dst []byte, sum uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[sum>>shift&0xf])
	}
	return dst
}

// openLine checks a line (no newlines) against its CRC field — the bytes
// after its last space — and returns the body the CRC covers.
func openLine(line []byte) ([]byte, error) {
	last := bytes.LastIndexByte(line, ' ')
	if last < 0 || len(line)-last-1 != 8 {
		return nil, errLineCRC
	}
	var sum [8]byte
	if !bytes.Equal(appendCRC(sum[:0], crc32.ChecksumIEEE(line[:last])), line[last+1:]) {
		return nil, errLineCRC
	}
	return line[:last], nil
}

// cutField splits b at its first space into a non-empty field and the rest.
func cutField(b []byte) (field, rest []byte, ok bool) {
	i := bytes.IndexByte(b, ' ')
	if i <= 0 {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

// decodePayload inverts appendPayload on a payload field, sigil included,
// into a fresh slice (nil for the empty payload).
func decodePayload(field []byte) ([]byte, error) {
	if len(field) == 0 || field[0] != payloadSigil {
		return nil, errLineSigil
	}
	field = field[1:]
	if len(field) == 0 {
		return nil, nil
	}
	out := make([]byte, 0, len(field))
	for {
		i := bytes.IndexByte(field, payloadEscape)
		if i < 0 {
			return append(out, field...), nil
		}
		if i+1 == len(field) {
			return nil, errLineEscape
		}
		switch field[i+1] {
		case 'n':
			out = append(append(out, field[:i]...), '\n')
		case payloadEscape:
			out = append(append(out, field[:i]...), payloadEscape)
		default:
			return nil, errLineEscape
		}
		field = field[i+2:]
	}
}

// Marshal encodes the record as one log line:
//
//	\nREQ <id> - =<payload> <crc32>\n
//	\nRES <id> <status> =<payload> <crc32>\n
//
// Line-oriented text keeps the log greppable on the share, as the paper's
// debugging workflow expects, and the escaped raw payload keeps it
// compact. The trailing CRC32 lets readers detect torn or bit-flipped
// lines on the shared medium. Every line is also PREFIXED with a newline:
// appends to an NFS file are not guaranteed atomic under writer crashes,
// and the leading newline terminates any torn tail a previous writer left
// behind, so the parser can resync on this record instead of fusing it
// with the garbage.
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
	b := make([]byte, 0, len(r.ID)+len(r.Payload)+len(r.Payload)/64+32)
	b = appendPayload(appendFields(b, r.Kind, r.ID, status), r.Payload)
	return sealLine(b), nil
}

// ParseRecords decodes every complete record line in data, skipping a
// trailing partial line (a reader may observe a log mid-append, and a
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

// parseLine decodes one record line. Kind, ID and status are the fields
// before the first three spaces, the CRC is the field after the last one,
// and everything between is the payload, spaces included. The CRC is
// mandatory and checked first: a torn append can truncate a line into
// something that still splits into plausible fields, and only the checksum
// reliably rejects it.
func parseLine(line []byte) (Record, error) {
	body, err := openLine(line)
	if err != nil {
		return Record{}, err
	}
	kind, rest, ok1 := cutField(body)
	id, rest, ok2 := cutField(rest)
	status, payload, ok3 := cutField(rest)
	if !ok1 || !ok2 || !ok3 {
		return Record{}, errLineFields
	}
	var rec Record
	switch string(kind) {
	case KindRequest:
		rec.Kind = KindRequest
		if string(status) != "-" {
			return Record{}, errLineStatus
		}
	case KindResponse:
		rec.Kind = KindResponse
		switch string(status) {
		case StatusOK:
			rec.Status = StatusOK
		case StatusError:
			rec.Status = StatusError
		default:
			return Record{}, errLineStatus
		}
	default:
		return Record{}, errLineKind
	}
	if rec.Payload, err = decodePayload(payload); err != nil {
		return Record{}, err
	}
	rec.ID = string(id)
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
