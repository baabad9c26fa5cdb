package smartfam

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordMarshalParseRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: KindRequest, ID: "abc123", Payload: []byte("params here")},
		{Kind: KindResponse, ID: "abc123", Status: StatusOK, Payload: []byte{0, 1, 2, 255}},
		{Kind: KindResponse, ID: "def", Status: StatusError, Payload: []byte("it broke")},
	}
	var log []byte
	for _, r := range recs {
		line, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, line...)
	}
	got, consumed, corrupt, err := ParseRecords(log)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", corrupt)
	}
	if consumed != len(log) {
		t.Fatalf("consumed %d, want %d", consumed, len(log))
	}
	if len(got) != len(recs) {
		t.Fatalf("parsed %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Kind != r.Kind || g.ID != r.ID || !bytes.Equal(g.Payload, r.Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, g, r)
		}
		if r.Kind == KindResponse && g.Status != r.Status {
			t.Fatalf("record %d status %q, want %q", i, g.Status, r.Status)
		}
	}
}

func TestMarshalRejectsBadRecords(t *testing.T) {
	cases := []Record{
		{Kind: "WAT", ID: "a"},
		{Kind: KindRequest, ID: ""},
		{Kind: KindRequest, ID: "has space"},
		{Kind: KindResponse, ID: "a", Status: "maybe"},
	}
	for _, r := range cases {
		if _, err := r.Marshal(); err == nil {
			t.Errorf("record %+v marshalled without error", r)
		}
	}
}

func TestParseRecordsSkipsPartialTrailingLine(t *testing.T) {
	full, err := (Record{Kind: KindRequest, ID: "x1", Payload: []byte("p")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	partial := []byte("RES x1 ok =hello") // no trailing newline
	data := append(append([]byte{}, full...), partial...)
	recs, consumed, corrupt, err := ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("parsed %d records, want 1 (partial line must wait)", len(recs))
	}
	if corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0 (a quarantined tail is not corrupt yet)", corrupt)
	}
	if consumed != len(full) {
		t.Fatalf("consumed %d, want %d", consumed, len(full))
	}
}

// sealed returns body as a CRC-valid log line, whatever it holds.
func sealed(body string) string {
	return string(sealLine(append([]byte{'\n'}, body...)))
}

func TestParseRecordsCountsMalformed(t *testing.T) {
	for _, bad := range []string{
		"REQ onlythree fields\n",
		sealed("BOGUS id - =hi"),
		sealed("RES id wat =hi"),
		sealed("REQ id ok =hi"),        // a request carries no status
		sealed("REQ  - =hi"),           // empty id
		sealed(`REQ id - =bad\escape`), // an escape other than \n and \\
		sealed(`REQ id - =trailing\`),  // a lone escape byte at the end
		// Base64 era: CRC-valid, but no sigil — counted corrupt, never
		// delivered with the base64 text as the payload.
		sealed("REQ id - aGk="),
		sealed("RES 0123456789abcdef ok aGVsbG8gd29ybGQ="),
		sealed("RES id error -"),  // the era's empty payload
		sealed("REQ id -"),        // no payload field
		"REQ id - =hi 00000000\n", // wrong CRC
		"REQ id - =hi\n",          // missing CRC field entirely
		"REQ id - =hi 0000000\n",  // short CRC field
	} {
		recs, consumed, corrupt, err := ParseRecords([]byte(bad))
		if err != nil {
			t.Fatalf("line %q: lenient parse returned hard error %v", strings.TrimSpace(bad), err)
		}
		if len(recs) != 0 {
			t.Errorf("malformed line %q yielded a record", strings.TrimSpace(bad))
		}
		if corrupt != 1 {
			t.Errorf("malformed line %q: corrupt = %d, want 1", strings.TrimSpace(bad), corrupt)
		}
		if consumed != len(bad) {
			t.Errorf("malformed line %q: consumed %d, want %d (resync past it)",
				strings.TrimSpace(bad), consumed, len(bad))
		}
	}
}

// A corrupt line must not poison its neighbours: the parser resyncs at the
// next newline and keeps every valid record around it.
func TestParseRecordsResyncsAroundCorruption(t *testing.T) {
	a, _ := (Record{Kind: KindRequest, ID: "a1", Payload: []byte("one")}).Marshal()
	b, _ := (Record{Kind: KindResponse, ID: "a1", Status: StatusOK, Payload: []byte("two")}).Marshal()
	log := append(append(append([]byte{}, a...), []byte("GARBAGE torn line no crc\n")...), b...)
	recs, consumed, corrupt, err := ParseRecords(log)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", corrupt)
	}
	if len(recs) != 2 || recs[0].ID != "a1" || recs[1].Kind != KindResponse {
		t.Fatalf("recs = %+v, want the two valid records", recs)
	}
	if consumed != len(log) {
		t.Fatalf("consumed %d, want %d", consumed, len(log))
	}
}

// edgePayloads are payloads the escaped raw codec must carry intact: its
// two escaped bytes and their escaped forms as literal text, the bytes a
// whitespace splitter would cut at (space, tab, \r\v\f, U+0085 and U+00A0
// in UTF-8), the base64 era's empty-payload sentinel, the sigil, text that
// looks like a CRC field, and a whole marshalled record.
var edgePayloads = func() [][]byte {
	inner, err := Record{Kind: KindResponse, ID: "inner", Status: StatusOK, Payload: []byte("nested \\ payload\n")}.Marshal()
	if err != nil {
		panic(err)
	}
	return [][]byte{
		nil,
		[]byte("a longer payload here"),
		[]byte("\n"),
		[]byte(`\`),
		[]byte(`\n`),
		[]byte("\\\n\n\\\\n"),
		[]byte(" "),
		[]byte("  two  spaces  "),
		[]byte("\ttab\r\v\f"),
		[]byte("\xc2\x85next line"),
		[]byte("no\xc2\xa0break"),
		[]byte("-"),
		[]byte("="),
		[]byte(" 00000000"),
		inner,
	}
}()

// A truncated record — the head of a line whose tail was lost — must be
// rejected by the CRC even when the fragment still splits into fields, at
// every cut point and whatever the payload escapes.
func TestParseRecordsRejectsTruncatedRecord(t *testing.T) {
	next, _ := (Record{Kind: KindRequest, ID: "t2", Payload: []byte("p")}).Marshal()
	for _, payload := range edgePayloads {
		full, _ := (Record{Kind: KindResponse, ID: "t1", Status: StatusOK, Payload: payload}).Marshal()
		// Cut inside the line (a cut before its own newline leaves it
		// whole) and terminate with the next record's leading newline.
		for cut := 2; cut < len(full)-1; cut++ {
			torn := append(append([]byte{}, full[:cut]...), next...)
			recs, _, corrupt, err := ParseRecords(torn)
			if err != nil {
				t.Fatal(err)
			}
			if corrupt != 1 {
				t.Fatalf("payload %q cut at %d: corrupt = %d, want 1 (the truncated head)", payload, cut, corrupt)
			}
			if len(recs) != 1 || recs[0].ID != "t2" {
				t.Fatalf("payload %q cut at %d: recs = %+v, want only t2", payload, cut, recs)
			}
		}
	}
}

// A single flipped bit anywhere in a record must fail its CRC.
func TestParseRecordsRejectsBitFlips(t *testing.T) {
	for _, payload := range edgePayloads {
		line, _ := (Record{Kind: KindRequest, ID: "bf", Payload: payload}).Marshal()
		for i := 1; i < len(line)-1; i++ { // skip the guard newlines
			mutated := append([]byte{}, line...)
			mutated[i] ^= 0x40
			recs, _, corrupt, err := ParseRecords(mutated)
			if err != nil {
				t.Fatal(err)
			}
			// The mutated log must never yield the original record while
			// claiming nothing was corrupt: every flip lands in the body, a
			// separator, or the CRC field, and all three break the checksum.
			for _, r := range recs {
				if corrupt == 0 && r.ID == "bf" && bytes.Equal(r.Payload, payload) {
					t.Fatalf("payload %q: bit flip at byte %d accepted silently", payload, i)
				}
			}
		}
	}
}

// Interleaved torn append: writer A dies mid-record, writer B's record
// (with its leading guard newline) lands right after. A's fragment fuses
// with nothing, B survives — whatever either payload escapes.
func TestParseRecordsInterleavedTorn(t *testing.T) {
	for _, payload := range edgePayloads {
		a, _ := (Record{Kind: KindRequest, ID: "aa", Payload: payload}).Marshal()
		b, _ := (Record{Kind: KindRequest, ID: "bb", Payload: payload}).Marshal()
		log := append(append([]byte{}, a[:len(a)-8]...), b...) // a torn before its CRC completes
		recs, consumed, corrupt, err := ParseRecords(log)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt != 1 {
			t.Fatalf("payload %q: corrupt = %d, want 1 (writer a's fragment)", payload, corrupt)
		}
		if len(recs) != 1 || recs[0].ID != "bb" || !bytes.Equal(recs[0].Payload, payload) {
			t.Fatalf("payload %q: recs = %+v, want only bb", payload, recs)
		}
		if consumed != len(log) {
			t.Fatalf("payload %q: consumed %d, want %d", payload, consumed, len(log))
		}
	}
}

// Pos must be the byte offset of each record's line start.
func TestParseRecordsPositions(t *testing.T) {
	a, _ := (Record{Kind: KindRequest, ID: "p1", Payload: []byte("x")}).Marshal()
	b, _ := (Record{Kind: KindRequest, ID: "p2", Payload: []byte("y")}).Marshal()
	log := append(append([]byte{}, a...), b...)
	recs, _, _, err := ParseRecords(log)
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs = %+v, err = %v", recs, err)
	}
	if recs[0].Pos >= recs[1].Pos {
		t.Fatalf("positions not increasing: %d then %d", recs[0].Pos, recs[1].Pos)
	}
	if recs[1].Pos >= int64(len(log)) {
		t.Fatalf("Pos %d out of range", recs[1].Pos)
	}
}

func TestParseRecordsSkipsBlankLines(t *testing.T) {
	line, _ := (Record{Kind: KindRequest, ID: "a", Payload: nil}).Marshal()
	data := append([]byte("\n\n"), line...)
	recs, _, corrupt, err := ParseRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0 (blank lines are not corruption)", corrupt)
	}
	if len(recs) != 1 {
		t.Fatalf("parsed %d records, want 1", len(recs))
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

func TestLogNameRoundtrip(t *testing.T) {
	if LogName("wordcount") != "wordcount.log" {
		t.Fatal("LogName wrong")
	}
	m, ok := ModuleFromLog("wordcount.log")
	if !ok || m != "wordcount" {
		t.Fatalf("ModuleFromLog = (%q,%v)", m, ok)
	}
	if _, ok := ModuleFromLog("notalog.txt"); ok {
		t.Fatal("non-log file accepted")
	}
	if _, ok := ModuleFromLog(".log"); ok {
		t.Fatal("empty module name accepted")
	}
}

// Property: any payload survives the log-line encoding, including newlines
// and binary — the edge payloads first, each as one record and all of them
// in one log, then random ones. A payload holding a whole marshalled
// record comes back as one record, never two.
func TestRecordPayloadRoundtripProperty(t *testing.T) {
	var log []byte
	for i, payload := range edgePayloads {
		rec := Record{Kind: KindResponse, ID: fmt.Sprintf("edge%d", i), Status: StatusOK, Payload: payload}
		line, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(line[1:len(line)-1], '\n') >= 0 {
			t.Fatalf("payload %q: raw newline inside the line", payload)
		}
		got, consumed, corrupt, err := ParseRecords(line)
		if err != nil || corrupt != 0 || consumed != len(line) || len(got) != 1 {
			t.Fatalf("payload %q: %d records, consumed %d of %d, corrupt %d, err %v",
				payload, len(got), consumed, len(line), corrupt, err)
		}
		if got[0].ID != rec.ID || !bytes.Equal(got[0].Payload, payload) {
			t.Fatalf("payload %q came back as %q under id %s", payload, got[0].Payload, got[0].ID)
		}
		log = append(log, line...)
	}
	if got, _, corrupt, err := ParseRecords(log); err != nil || corrupt != 0 || len(got) != len(edgePayloads) {
		t.Fatalf("edge-payload log: %d records, corrupt %d, err %v; want %d records", len(got), corrupt, err, len(edgePayloads))
	}

	prop := func(payload []byte, isReq bool) bool {
		rec := Record{Kind: KindResponse, ID: NewID(), Status: StatusOK, Payload: payload}
		if isReq {
			rec = Record{Kind: KindRequest, ID: NewID(), Payload: payload}
		}
		line, err := rec.Marshal()
		if err != nil {
			return false
		}
		got, consumed, corrupt, err := ParseRecords(line)
		if err != nil || corrupt != 0 || consumed != len(line) || len(got) != 1 {
			return false
		}
		return bytes.Equal(got[0].Payload, payload) && got[0].ID == rec.ID
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
