package core

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcsd/internal/nfs"
	"mcsd/internal/smartfam"
)

// TestRemoteDataStoreOverNFS reads SD-resident data the way a host-only run
// does: through RemoteDataStore over a live share. Every open flavour must
// return the exact bytes, including range scans that cross chunk boundaries
// and finish past their declared end.
func TestRemoteDataStoreOverNFS(t *testing.T) {
	root := t.TempDir()
	payload := make([]byte, 2*nfs.MaxChunk+12345)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	if err := os.WriteFile(filepath.Join(root, "data.bin"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := nfs.NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { ln.Close(); srv.Shutdown() })
	c, err := nfs.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	store := RemoteDataStore(c)

	size, err := store.Size("data.bin")
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("Size = (%d, %v), want %d", size, err, len(payload))
	}
	if _, err := store.Size("missing.bin"); !errors.Is(err, smartfam.ErrNotExist) {
		t.Fatalf("Size of a missing file: %v, want ErrNotExist", err)
	}

	readAll := func(r io.ReadCloser, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := readAll(store.Open("data.bin")); !bytes.Equal(got, payload) {
		t.Fatalf("Open read %d bytes with wrong content, want %d", len(got), len(payload))
	}
	const off = nfs.MaxChunk - 100 // straddles the first chunk boundary
	if got := readAll(OpenAt(store, "data.bin", off)); !bytes.Equal(got, payload[off:]) {
		t.Fatalf("OpenAt read %d bytes with wrong content, want %d", len(got), len(payload)-off)
	}
	// A range scan is bounded only in its read-ahead: it still serves the
	// bytes past off+length that finish a straddling record, through EOF.
	const length = 4096
	if got := readAll(OpenRange(store, "data.bin", off, length)); !bytes.Equal(got, payload[off:]) {
		t.Fatalf("OpenRange read %d bytes with wrong content, want %d", len(got), len(payload)-off)
	}
}
