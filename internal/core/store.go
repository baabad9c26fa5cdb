// Package core is the McSD programming framework: the public runtime a
// host application links against to write MapReduce-like code whose
// data-intensive parts are automatically offloaded to multicore smart
// storage nodes (§IV), plus the standard data-intensive modules those
// nodes preload.
//
// The framework owns what the paper's §I promises: computation offload
// (via smartFAM log files over the share), data partitioning (the Fig. 6
// extension, applied on the SD side), and load balancing (the host-side
// computation-intensive function runs concurrently with the offloaded
// function; jobs spread across SD nodes; failed nodes fail over).
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// DataStore abstracts where a module's input data lives: the SD node's
// local disk (DirStore — the fast path that makes smart storage smart) or
// the share seen from the host (RemoteDataStore — the slow path a host-only
// run is forced through).
type DataStore interface {
	// Open returns a streaming reader for the named file.
	Open(name string) (io.ReadCloser, error)
	// Size returns the file's size in bytes.
	Size(name string) (int64, error)
}

// DirStore returns a DataStore over a local directory.
func DirStore(root string) DataStore { return &dirStore{root: root} }

type dirStore struct {
	root string
}

func (d *dirStore) path(name string) (string, error) {
	if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, `\`) {
		return "", fmt.Errorf("core: invalid data path %q", name)
	}
	for _, part := range strings.Split(name, "/") {
		if part == "" || part == "." || part == ".." {
			return "", fmt.Errorf("core: invalid data path %q", name)
		}
	}
	return filepath.Join(d.root, filepath.FromSlash(name)), nil
}

func (d *dirStore) Open(name string) (io.ReadCloser, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", name, err)
	}
	return f, nil
}

func (d *dirStore) OpenAt(name string, off int64) (io.ReadCloser, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", name, err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: seek %s to %d: %w", name, off, err)
	}
	return f, nil
}

func (d *dirStore) Size(name string) (int64, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, fmt.Errorf("core: stat %s: %w", name, err)
	}
	return fi.Size(), nil
}

// RangeOpener is the optional DataStore extension the fleet's scatter path
// needs: open a file positioned at a byte offset so an SD node reads only
// its assigned fragment range instead of streaming from byte zero.
type RangeOpener interface {
	// OpenAt returns a streaming reader positioned at off.
	OpenAt(name string, off int64) (io.ReadCloser, error)
}

// OpenAt opens name at off through the store's native range support when it
// has any, and otherwise by discarding the prefix — correct on every store,
// just paying the wasted bytes that RangeOpener implementations avoid.
func OpenAt(store DataStore, name string, off int64) (io.ReadCloser, error) {
	if off < 0 {
		return nil, fmt.Errorf("core: negative offset %d for %s", off, name)
	}
	if ro, ok := store.(RangeOpener); ok {
		return ro.OpenAt(name, off)
	}
	f, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	if off > 0 {
		if _, err := io.CopyN(io.Discard, f, off); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: skipping to offset %d of %s: %w", off, name, err)
		}
	}
	return f, nil
}

// RangeScanOpener is the length-aware refinement of RangeOpener: the store
// is told how many bytes the scan intends to consume, so remote
// implementations can bound their read-ahead to the range instead of
// dragging a full prefetch window over the wire for a short fragment. The
// returned reader must still serve bytes past off+length on demand — a
// range scan may finish a record that straddles the boundary.
type RangeScanOpener interface {
	OpenRange(name string, off, length int64) (io.ReadCloser, error)
}

// OpenRange opens name at off for a scan of about length bytes. Stores with
// length-aware range support bound their prefetching to the range; others
// degrade to OpenAt, which is correct but may over-fetch. length <= 0 means
// unknown.
func OpenRange(store DataStore, name string, off, length int64) (io.ReadCloser, error) {
	if off < 0 {
		return nil, fmt.Errorf("core: negative offset %d for %s", off, name)
	}
	if ro, ok := store.(RangeScanOpener); ok && length > 0 {
		return ro.OpenRange(name, off, length)
	}
	return OpenAt(store, name, off)
}

// RemoteStore is the slice of the share-client surface a DataStore needs;
// *nfs.Client satisfies it.
type RemoteStore interface {
	OpenReader(name string) (io.ReadCloser, error)
	OpenReaderAt(name string, off int64) (io.ReadCloser, error)
	OpenRangeReader(name string, off, length int64) (io.ReadCloser, error)
	Stat(name string) (int64, time.Time, error)
}

// RemoteDataStore returns a DataStore over a mounted share — host-side
// access to SD-resident data, paying network costs for every byte.
func RemoteDataStore(fs RemoteStore) DataStore { return &nfsStore{fs: fs} }

type nfsStore struct {
	fs RemoteStore
}

func (s *nfsStore) Open(name string) (io.ReadCloser, error) {
	return s.fs.OpenReader(name)
}

func (s *nfsStore) OpenAt(name string, off int64) (io.ReadCloser, error) {
	return s.fs.OpenReaderAt(name, off)
}

// OpenRange bounds the client's pipelined read-ahead to the declared range.
func (s *nfsStore) OpenRange(name string, off, length int64) (io.ReadCloser, error) {
	return s.fs.OpenRangeReader(name, off, length)
}

func (s *nfsStore) Size(name string) (int64, error) {
	size, _, err := s.fs.Stat(name)
	return size, err
}
