package nfs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// frameBytes renders frames through the real encoder so fuzz seeds start
// from well-formed wire images.
func frameBytes(t interface{ Fatal(...any) }, write func(e *frameEncoder) error) []byte {
	var buf bytes.Buffer
	if err := write(newFrameEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode throws arbitrary byte streams at both ends of the binary
// framing — the server's scratch-buffer request decoder and the client's
// pooled response decoder. Truncated, oversized and bit-flipped frames must
// surface as errors, never panics, out-of-bounds slices or hangs.
func FuzzFrameDecode(f *testing.F) {
	req := frameBytes(f, func(e *frameEncoder) error {
		return e.writeRequest(&Request{Tag: 7, Op: OpReadAt, Name: "dir/file.txt", Off: 42, N: 1 << 16})
	})
	resp := frameBytes(f, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: 7, Size: 9, MTimeNs: 123456789, Data: []byte("payload"), EOF: true})
	})
	listResp := frameBytes(f, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: 1, Names: []string{"a", "bb", "ccc"}})
	})
	errResp := frameBytes(f, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: 2, Err: "nfs: boom", NotExist: true})
	})
	commitReq := frameBytes(f, func(e *frameEncoder) error {
		return e.writeRequest(&Request{Tag: 9, Op: OpCommit, Name: "x.append-1.tmp", To: "x.log", N: CommitAppend})
	})
	notifyResp := frameBytes(f, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: NotifyTag, Names: []string{"wc.log"}, Gen: 12345})
	})
	watchReq := frameBytes(f, func(e *frameEncoder) error {
		return e.writeRequest(&Request{Tag: 11, Op: OpWatch, Name: "prefix-"})
	})
	// Varint boundaries of the header: one- and two-byte tags, the top
	// bit, negative and wall-clock signed fields, a maximal name.
	for _, tag := range []uint64{127, 128, 1 << 63} {
		f.Add(frameBytes(f, func(e *frameEncoder) error {
			return e.writeRequest(&Request{Tag: tag, Op: OpAppend, Name: "wc.log", Data: []byte("x")})
		}))
	}
	f.Add(frameBytes(f, func(e *frameEncoder) error {
		return e.writeRequest(&Request{Tag: 3, Op: OpReadAt, Name: "f", Off: -1, N: -5})
	}))
	f.Add(frameBytes(f, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: 4, Size: 1 << 40, MTimeNs: 1760000000123456789})
	}))
	f.Add(frameBytes(f, func(e *frameEncoder) error {
		return e.writeRequest(&Request{Tag: 5, Op: OpStat, Name: strings.Repeat("n", maxName)})
	}))
	f.Add(frameBytes(f, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: NotifyTag, Names: []string{"wc.log"}, Gen: 1<<63 + 1, Size: 300, Data: []byte("rec\n")})
	}))
	f.Add(notifyResp)
	f.Add(watchReq)
	f.Add(req)
	f.Add(resp)
	f.Add(listResp)
	f.Add(errResp)
	f.Add(commitReq)
	f.Add(append(append([]byte{}, req...), resp...)) // back-to-back frames
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})                         // truncated length prefix
	f.Add([]byte{0x00, 0x00, 0x00, 0x08, 0x01, 0x02}) // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})       // oversized length
	flipped := append([]byte{}, req...)
	flipped[len(flipped)/2] ^= 0x80
	f.Add(flipped)
	truncatedNames := append([]byte{}, listResp...)
	f.Add(truncatedNames[:len(truncatedNames)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: scratch-buffer decoding, several frames per stream.
		sc := newBinServerCodec(bufio.NewReader(bytes.NewReader(data)), io.Discard)
		for i := 0; i < 8; i++ {
			var rq Request
			if err := sc.readRequest(&rq); err != nil {
				break
			}
			// A frame that decodes must re-encode without panicking.
			var buf bytes.Buffer
			if err := newFrameEncoder(&buf).writeRequest(&rq); err != nil {
				t.Fatalf("re-encoding decoded request: %v", err)
			}
		}
		// Client side: pooled decoding; every successfully decoded response
		// owns a pooled frame that must be released exactly once.
		cc := newBinClientCodec(bytes.NewReader(data), io.Discard)
		for i := 0; i < 8; i++ {
			var rs Response
			if err := cc.readResponse(&rs); err != nil {
				break
			}
			var buf bytes.Buffer
			if err := newFrameEncoder(&buf).writeResponse(&rs); err != nil {
				t.Fatalf("re-encoding decoded response: %v", err)
			}
			rs.free()
		}
	})
}

// TestFrameRoundTrip pins the encode/decode pair on representative
// requests and responses, including zero-copy payload tails.
func TestFrameRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing, Tag: 1},
		{Op: OpAppend, Tag: 2, Name: "a.log", Data: bytes.Repeat([]byte{0xAB}, 3000)},
		{Op: OpReadAt, Tag: 3, Name: "b.dat", Off: 1 << 40, N: MaxChunk},
		{Op: OpRename, Tag: 4, Name: "old", To: "new"},
		{Op: OpCommit, Tag: 5, Name: "t.append-9.tmp", To: "t", N: CommitReplace},
		{Op: OpWatch, Tag: 6, Name: "logs-"},
	}
	var buf bytes.Buffer
	enc := newFrameEncoder(&buf)
	for _, r := range reqs {
		if err := enc.writeRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	dec := newFrameDecoder(bufio.NewReader(&buf), false)
	for _, want := range reqs {
		body, _, err := dec.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := decodeRequest(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Tag != want.Tag || got.Op != want.Op || got.Name != want.Name ||
			got.To != want.To || got.Off != want.Off || got.N != want.N ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("request round trip mismatch: got %+v want %+v", got, want)
		}
	}

	resps := []*Response{
		{Tag: 1},
		{Tag: 2, Data: bytes.Repeat([]byte{0xCD}, 5000), EOF: true},
		{Tag: 3, Size: 1 << 50, MTimeNs: -1},
		{Tag: 4, Names: []string{"x", "", "long-name-with-unicode-✓"}},
		{Tag: 5, Err: "nfs: nope", NotExist: true},
		{Tag: 6, Size: 99, MTimeNs: 7, Gen: 1<<63 + 5},
		{Tag: NotifyTag, Names: []string{"wc.log"}, Gen: 42},
		{Tag: 8, Size: 4096, Gen: 3, Landed: true},
	}
	buf.Reset()
	for _, r := range resps {
		if err := enc.writeResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	dec = newFrameDecoder(bufio.NewReader(&buf), true)
	for _, want := range resps {
		body, fb, err := dec.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := decodeResponse(body, &got); err != nil {
			t.Fatal(err)
		}
		got.frame = fb
		if got.Tag != want.Tag || got.Size != want.Size || got.MTimeNs != want.MTimeNs ||
			got.Gen != want.Gen || got.Err != want.Err || got.NotExist != want.NotExist ||
			got.EOF != want.EOF || got.Landed != want.Landed || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("response round trip mismatch: got %+v want %+v", got, want)
		}
		if len(got.Names) != len(want.Names) {
			t.Fatalf("names round trip mismatch: got %v want %v", got.Names, want.Names)
		}
		for i := range want.Names {
			if got.Names[i] != want.Names[i] {
				t.Fatalf("names[%d]: got %q want %q", i, got.Names[i], want.Names[i])
			}
		}
		got.free()
	}
}

// TestFrameDecodeRejectsMalformed pins the header's varint checks: every
// case is a body the decoder must refuse as ErrFrame, not misread.
func TestFrameDecodeRejectsMalformed(t *testing.T) {
	uv := func(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
	// reqHead and respHead are well-formed headers up to the first name
	// or the error; respList up to the name count.
	reqHead := func() []byte { return []byte{1, opCodes[OpStat], 0, 0} }
	respHead := func() []byte { return []byte{1, 0, 0, 0, 0} }
	respList := func() []byte { return append(respHead(), 0) }
	overlong := append(bytes.Repeat([]byte{0xff}, 10), 0x01) // past 64 bits
	tooLong := append(uv(nil, maxName+1), bytes.Repeat([]byte{'n'}, maxName+1)...)
	cases := []struct {
		name string
		req  bool // decode as a request, else as a response
		body []byte
	}{
		{"empty request", true, nil},
		{"truncated request tag", true, []byte{0x80}},
		{"over-long request tag", true, overlong},
		{"truncated offset", true, []byte{1, opCodes[OpReadAt], 0x80}},
		{"over-long offset", true, append([]byte{1, opCodes[OpReadAt]}, overlong...)},
		{"over-long count", true, append([]byte{1, opCodes[OpReadAt], 0}, overlong...)},
		{"truncated name length", true, append(reqHead(), 0x80)},
		{"name past the frame", true, append(reqHead(), 5, 'a')},
		{"name over 0xffff", true, append(reqHead(), tooLong...)},
		{"to over 0xffff", true, append(append(reqHead(), 0), tooLong...)},
		{"empty response", false, nil},
		{"truncated response tag", false, []byte{0xff, 0xff}},
		{"over-long response tag", false, overlong},
		{"over-long size", false, append([]byte{1, 0}, overlong...)},
		{"over-long gen", false, append([]byte{1, 0, 0, 0}, overlong...)},
		{"error over 0xffff", false, append(respHead(), tooLong...)},
		{"name count past the frame", false, append(uv(respList(), 5), 0, 0, 0)},
		{"name count past 2^63", false, append(uv(respList(), 1<<63), 0)},
		{"truncated name count", false, append(respList(), 0x80)},
		{"name in the list over 0xffff", false, append(uv(respList(), 1), tooLong...)},
	}
	for _, tc := range cases {
		var err error
		if tc.req {
			err = decodeRequest(tc.body, &Request{})
		} else {
			err = decodeResponse(tc.body, &Response{})
		}
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: decode error = %v, want ErrFrame", tc.name, err)
		}
	}
}

// TestFrameHeaderVarints round-trips the header's integers at their varint
// boundaries and pins what one smartFAM record's append costs in header
// bytes.
func TestFrameHeaderVarints(t *testing.T) {
	for _, want := range []Request{
		{Tag: 127, Op: OpAppend, Name: "echo.log", Data: []byte("rec")},
		{Tag: 128, Op: OpReadAt, Name: "f", Off: -1, N: -5},
		{Tag: 1 << 63, Op: OpReadAt, Name: "f", Off: 1<<63 - 1, N: MaxChunk},
		{Tag: 9, Op: OpStat, Name: strings.Repeat("n", maxName), To: "t"},
	} {
		frame := frameBytes(t, func(e *frameEncoder) error { return e.writeRequest(&want) })
		var got Request
		if err := decodeRequest(frame[4:], &got); err != nil {
			t.Fatalf("tag %d: %v", want.Tag, err)
		}
		if got.Tag != want.Tag || got.Op != want.Op || got.Name != want.Name || got.To != want.To ||
			got.Off != want.Off || got.N != want.N || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("request round trip: got %+v want %+v", got, want)
		}
	}
	for _, want := range []Response{
		{Tag: 127, Size: -1, MTimeNs: 1760000000123456789, Gen: 128},
		{Tag: NotifyTag, Names: []string{"echo.log"}, Gen: 1<<63 + 1, Size: 1 << 40, Data: []byte("rec")},
		{Tag: 128, Err: strings.Repeat("e", maxName), NotExist: true, Landed: true, EOF: true},
	} {
		frame := frameBytes(t, func(e *frameEncoder) error { return e.writeResponse(&want) })
		var got Response
		if err := decodeResponse(frame[4:], &got); err != nil {
			t.Fatalf("tag %d: %v", want.Tag, err)
		}
		if got.Tag != want.Tag || got.Size != want.Size || got.MTimeNs != want.MTimeNs || got.Gen != want.Gen ||
			got.Err != want.Err || got.NotExist != want.NotExist || got.EOF != want.EOF ||
			got.Landed != want.Landed || strings.Join(got.Names, "/") != strings.Join(want.Names, "/") ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("response round trip: got %+v want %+v", got, want)
		}
	}

	// A record append on tag 100 and its Landed reply at a 1 MiB offset:
	// past the length prefix, 6 + len(name) header bytes out and 10 back
	// (the size takes 4; every other field, 1).
	rec := []byte("rec\n")
	req := frameBytes(t, func(e *frameEncoder) error {
		return e.writeRequest(&Request{Tag: 100, Op: OpAppend, Name: "echo.log", Data: rec})
	})
	if head := len(req) - len(rec); head != 4+6+len("echo.log") {
		t.Fatalf("append request header = %d B, want %d", head, 4+6+len("echo.log"))
	}
	resp := frameBytes(t, func(e *frameEncoder) error {
		return e.writeResponse(&Response{Tag: 100, Size: 1 << 20, Gen: 7, Landed: true})
	})
	if len(resp) != 4+10 {
		t.Fatalf("landed reply = %d B, want %d", len(resp), 4+10)
	}
}
