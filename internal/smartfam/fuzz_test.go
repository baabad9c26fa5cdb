package smartfam

import (
	"bytes"
	"testing"
)

// FuzzParseRecords asserts the log parser's contract on arbitrary bytes:
// it never panics, never consumes more than it was given, never returns a
// record that fails its own checksum discipline (everything it returns
// re-marshals), and anything it parses re-marshals to a prefix-equivalent
// log. Corruption is reported through the count, never through err.
func FuzzParseRecords(f *testing.F) {
	req, _ := (Record{Kind: KindRequest, ID: "abc", Payload: []byte("p")}).Marshal()
	res, _ := (Record{Kind: KindResponse, ID: "abc", Status: StatusOK, Payload: []byte{0, 255}}).Marshal()
	f.Add(append(req, res...))
	f.Add([]byte("REQ x - -\n")) // legacy CRC-less line: corrupt now
	f.Add([]byte("RES x ok =hi\npartial tail without newline"))
	// Base64-era lines: CRC-valid, no sigil.
	f.Add([]byte(sealed("REQ x - aGk=") + sealed("RES x ok -")))
	// Every edge payload as a record, its torn head against the next
	// record, and its bit-flipped form.
	for _, payload := range edgePayloads {
		line, _ := (Record{Kind: KindResponse, ID: "edge", Status: StatusOK, Payload: payload}).Marshal()
		f.Add(line)
		f.Add(append(append([]byte{}, line[:len(line)/2]...), req...))
		flipped := append([]byte{}, line...)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("REQ"))
	// Truncated record: a full line cut mid-payload, terminated by the
	// next record's guard newline.
	f.Add(append(append([]byte{}, res[:len(res)/2]...), req...))
	// Bit-flipped record: one corrupted byte in an otherwise valid line.
	flipped := append([]byte{}, req...)
	if len(flipped) > 8 {
		flipped[8] ^= 0x01
	}
	f.Add(flipped)
	// Interleaved torn append: writer A's fragment fused against writer
	// B's complete record.
	f.Add(append(append([]byte{}, req[:len(req)-6]...), res...))
	// Corrupt line sandwiched between two valid records.
	f.Add(append(append(append([]byte{}, req...), []byte("garbage line\n")...), res...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, corrupt, err := ParseRecords(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		if corrupt < 0 {
			t.Fatalf("corrupt = %d", corrupt)
		}
		if err != nil {
			return
		}
		var remarshalled []byte
		for _, r := range recs {
			line, merr := r.Marshal()
			if merr != nil {
				t.Fatalf("parsed record does not re-marshal: %+v: %v", r, merr)
			}
			remarshalled = append(remarshalled, line...)
		}
		// Round trip: parsing the re-marshalled log yields the same
		// records, with nothing corrupt.
		recs2, consumed2, corrupt2, err2 := ParseRecords(remarshalled)
		if err2 != nil || corrupt2 != 0 || consumed2 != len(remarshalled) || len(recs2) != len(recs) {
			t.Fatalf("re-parse mismatch: %d records vs %d (corrupt %d, err %v)",
				len(recs2), len(recs), corrupt2, err2)
		}
		for i := range recs {
			if recs[i].Kind != recs2[i].Kind || recs[i].ID != recs2[i].ID ||
				recs[i].Status != recs2[i].Status || !bytes.Equal(recs[i].Payload, recs2[i].Payload) {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
	})
}

// FuzzParseJournal holds the journal replay to the same standard: no
// panics, no hard errors — a corrupted journal degrades, never wedges —
// and every DONE entry it accepts survives compaction's rewrite.
func FuzzParseJournal(f *testing.F) {
	f.Add([]byte(string(journalLine(journalIntent, "id1", "mod", "0")) +
		string(doneLine("id1", "mod", StatusOK, []byte("hi"))) +
		string(journalLine(journalResp, "id1"))))
	f.Add([]byte("INTENT half a li"))
	f.Add([]byte("DONE id mod ok =hi deadbeef\n"))
	f.Add([]byte(sealed("DONE id mod ok aGk="))) // base64 era: no sigil
	f.Add([]byte(""))
	for _, payload := range edgePayloads {
		line := doneLine("id2", "mod", StatusError, payload)
		f.Add(line)
		f.Add(line[:len(line)/2]) // torn tail
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, corrupt := parseJournal(data)
		if corrupt < 0 {
			t.Fatalf("corrupt = %d", corrupt)
		}
		for _, e := range entries {
			switch e.Kind {
			case journalIntent, journalDone, journalResp:
			default:
				t.Fatalf("invalid entry kind %q survived parsing", e.Kind)
			}
			if e.ID == "" {
				t.Fatalf("entry with empty ID survived parsing: %+v", e)
			}
			// A replayed DONE is what compaction rewrites: it must come
			// back from its own rewrite unchanged.
			if e.Kind == journalDone {
				again, n := parseJournal(doneLine(e.ID, e.Module, e.Status, e.Payload))
				if n != 0 || len(again) != 1 || again[0].ID != e.ID || again[0].Module != e.Module ||
					again[0].Status != e.Status || !bytes.Equal(again[0].Payload, e.Payload) {
					t.Fatalf("DONE entry %+v changed across its compaction rewrite", e)
				}
			}
		}
	})
}
