package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mcsd/internal/smartfam"
)

// FSStore adapts a smartFAM share FS into a DataStore, so a module can
// read data objects that live on the share itself — the replicated
// fragment objects the fleet tier writes next to the log files — and so
// tests can route module data reads through a faultfs-wrapped share.
//
//mcsdlint:allow deadexport -- the sealed-object store the ROADMAP "one fleet word count" item wires; chaos-heal and fleet tests read through it today
func FSStore(fsys smartfam.FS) DataStore { return &fsStore{fs: fsys} }

type fsStore struct {
	fs smartfam.FS
}

func (s *fsStore) Open(name string) (io.ReadCloser, error) {
	return s.OpenAt(name, 0)
}

func (s *fsStore) OpenAt(name string, off int64) (io.ReadCloser, error) {
	return &fsReader{fs: s.fs, name: name, off: off}, nil
}

func (s *fsStore) Size(name string) (int64, error) {
	size, _, err := s.fs.Stat(name)
	return size, err
}

// fsReader streams a share file through FS.ReadAt.
type fsReader struct {
	fs   smartfam.FS
	name string
	off  int64
	eof  bool
}

func (r *fsReader) Read(p []byte) (int, error) {
	if r.eof {
		return 0, io.EOF
	}
	n, err := r.fs.ReadAt(r.name, p, r.off)
	r.off += int64(n)
	if errors.Is(err, io.EOF) {
		r.eof = true
		if n > 0 {
			return n, nil
		}
		return 0, io.EOF
	}
	return n, err
}

func (r *fsReader) Close() error { return nil }

// SealedStore wraps a DataStore whose files are sealed blobs
// (smartfam.SealBlob: payload + fixed-width CRC32 trailer) and verifies
// every read: Open parses the trailer first (one small tail read), then
// streams exactly the payload, folding the bytes through CRC32 and
// failing with smartfam.ErrCorruptBlob — before EOF is ever reported — if
// the checksum or length disagrees. Size reports the payload size. A
// module reading a replicated fragment object through a SealedStore can
// therefore never silently consume a bit-flipped or truncated replica.
func SealedStore(inner DataStore) DataStore { return &sealedStore{inner: inner} }

type sealedStore struct {
	inner DataStore
}

func (s *sealedStore) Size(name string) (int64, error) {
	size, err := s.inner.Size(name)
	if err != nil {
		return 0, err
	}
	if size < int64(smartfam.BlobTrailerLen) {
		return 0, fmt.Errorf("core: %s: %w: %d bytes is shorter than the trailer", name, smartfam.ErrCorruptBlob, size)
	}
	return size - int64(smartfam.BlobTrailerLen), nil
}

func (s *sealedStore) Open(name string) (io.ReadCloser, error) {
	size, err := s.inner.Size(name)
	if err != nil {
		return nil, err
	}
	if size < int64(smartfam.BlobTrailerLen) {
		return nil, fmt.Errorf("core: %s: %w: %d bytes is shorter than the trailer", name, smartfam.ErrCorruptBlob, size)
	}
	tr, err := OpenAt(s.inner, name, size-int64(smartfam.BlobTrailerLen))
	if err != nil {
		return nil, err
	}
	trailer := make([]byte, smartfam.BlobTrailerLen)
	_, rerr := io.ReadFull(tr, trailer)
	tr.Close()
	if rerr != nil {
		return nil, fmt.Errorf("core: %s: reading blob trailer: %w", name, rerr)
	}
	payloadLen, crc, err := smartfam.ParseBlobTrailer(trailer)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	if payloadLen != size-int64(smartfam.BlobTrailerLen) {
		return nil, fmt.Errorf("core: %s: %w: trailer pins %d payload bytes, file holds %d",
			name, smartfam.ErrCorruptBlob, payloadLen, size-int64(smartfam.BlobTrailerLen))
	}
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &verifyReader{name: name, r: f, remaining: payloadLen, want: crc}, nil
}

// verifyReader serves exactly the payload bytes, checking the CRC before
// the final EOF so a consumer can never finish on corrupt data.
type verifyReader struct {
	name      string
	r         io.ReadCloser
	remaining int64
	want      uint32
	crc       uint32
	checked   bool
}

func (v *verifyReader) Read(p []byte) (int, error) {
	if v.remaining <= 0 {
		if err := v.check(); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	if int64(len(p)) > v.remaining {
		p = p[:v.remaining]
	}
	n, err := v.r.Read(p)
	if n > 0 {
		v.crc = crc32.Update(v.crc, crc32.IEEETable, p[:n])
		v.remaining -= int64(n)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			if v.remaining > 0 {
				return n, fmt.Errorf("core: %s: %w: payload truncated %d bytes early",
					v.name, smartfam.ErrCorruptBlob, v.remaining)
			}
			if cerr := v.check(); cerr != nil {
				return n, cerr
			}
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		return n, err
	}
	if v.remaining == 0 {
		if cerr := v.check(); cerr != nil {
			return n, cerr
		}
	}
	return n, nil
}

func (v *verifyReader) check() error {
	if v.checked {
		return nil
	}
	v.checked = true
	if v.crc != v.want {
		return fmt.Errorf("core: %s: %w: payload crc %08x, trailer pins %08x",
			v.name, smartfam.ErrCorruptBlob, v.crc, v.want)
	}
	return nil
}

func (v *verifyReader) Close() error { return v.r.Close() }
