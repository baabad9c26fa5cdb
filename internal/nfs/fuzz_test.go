package nfs

import (
	"bufio"
	"bytes"
	"io"
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
