// Package smartfam implements smartFAM, the paper's invocation mechanism
// (Fig. 5): a host computing node triggers data-intensive processing
// modules on a McSD storage node by writing input parameters into the
// module's log file inside an NFS-shared folder; an inotify-style watcher
// on the SD node notices the change and a daemon invokes the module; the
// module's results are written back into the same log file, where the
// host-side watcher picks them up and hands them to the calling
// application.
//
// The shared folder is abstracted behind FS so the same daemon and client
// run over a local directory (one-process tests, the paper's single-box
// development mode) or over the internal/nfs client (the real two-node
// deployment where every log-file byte crosses the modelled network).
package smartfam

//mcsdlint:fsboundary -- dirFS is the os-backed leaf of the FS abstraction; every other package reaches disk through it

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FS is the slice of file operations smartFAM needs from the shared log
// folder. Append must be atomic with respect to concurrent appends to the
// same file.
type FS interface {
	// Create makes an empty file, truncating any existing one.
	Create(name string) error
	// Append atomically appends data to the named file, creating it if
	// needed.
	Append(name string, data []byte) error
	// ReadAt reads up to len(p) bytes from the given offset, returning
	// io.EOF semantics like os.File.ReadAt.
	ReadAt(name string, p []byte, off int64) (int, error)
	// Stat returns the current size and modification time of the file.
	Stat(name string) (size int64, mtime time.Time, err error)
	// List returns the file names in the shared folder.
	List() ([]string, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically replaces newname with oldname (both inside the
	// folder). The daemon's journal compaction depends on this atomicity.
	Rename(oldname, newname string) error
}

// ErrNotExist mirrors fs.ErrNotExist for FS implementations.
var ErrNotExist = os.ErrNotExist

// DirFS returns an FS rooted at a local directory, the single-node
// configuration. Name components are validated so a log name cannot escape
// the share. It is a ReplaceFS: every DirFS over one directory in this
// process shares one lock, which Append and the conditional replace take,
// and one table of rewrites per file, which Create, Remove, Rename and the
// replace bump; a file's identity is its rewrite count plus one. Writers
// outside the process are not seen; they may only append.
func DirFS(root string) FS {
	key, err := filepath.Abs(root)
	if err != nil {
		key = filepath.Clean(root)
	}
	st, _ := dirStates.LoadOrStore(key, &dirState{rewrites: make(map[string]uint64)})
	return &dirFS{root: root, st: st.(*dirState)}
}

type dirFS struct {
	root string
	st   *dirState
}

// dirState is what the DirFS values over one directory share; dirStates
// maps each absolute directory to its own.
type dirState struct {
	mu       sync.Mutex
	rewrites map[string]uint64 // per file name, never reset
}

var dirStates sync.Map

func (d *dirFS) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return "", fmt.Errorf("smartfam: invalid log name %q", name)
	}
	return filepath.Join(d.root, name), nil
}

func (d *dirFS) Create(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.rewrites[name]++
	f, err := os.Create(p)
	if err != nil {
		return fmt.Errorf("smartfam: create %s: %w", name, err)
	}
	return f.Close()
}

func (d *dirFS) Append(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("smartfam: append %s: %w", name, err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("smartfam: append %s: %w", name, err)
	}
	return nil
}

func (d *dirFS) ReadAt(name string, p []byte, off int64) (int, error) {
	pathName, err := d.path(name)
	if err != nil {
		return 0, err
	}
	f, err := os.Open(pathName)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, ErrNotExist
		}
		return 0, fmt.Errorf("smartfam: open %s: %w", name, err)
	}
	defer f.Close()
	n, err := f.ReadAt(p, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, fmt.Errorf("smartfam: read %s: %w", name, err)
	}
	return n, err
}

func (d *dirFS) Stat(name string) (int64, time.Time, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, time.Time{}, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, time.Time{}, ErrNotExist
		}
		return 0, time.Time{}, fmt.Errorf("smartfam: stat %s: %w", name, err)
	}
	return fi.Size(), fi.ModTime(), nil
}

func (d *dirFS) List() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("smartfam: list share: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *dirFS) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.rewrites[name]++
	if err := os.Remove(p); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ErrNotExist
		}
		return fmt.Errorf("smartfam: remove %s: %w", name, err)
	}
	return nil
}

func (d *dirFS) Rename(oldname, newname string) error {
	from, err := d.path(oldname)
	if err != nil {
		return err
	}
	to, err := d.path(newname)
	if err != nil {
		return err
	}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.rewrites[oldname]++
	d.st.rewrites[newname]++
	if err := os.Rename(from, to); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ErrNotExist
		}
		return fmt.Errorf("smartfam: rename %s -> %s: %w", oldname, newname, err)
	}
	return nil
}

// StatGen implements GenStat, reading size and identity under the lock.
func (d *dirFS) StatGen(name string) (int64, time.Time, uint64, error) {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	size, mtime, err := d.Stat(name)
	return size, mtime, d.st.rewrites[name] + 1, err
}

// ReplaceIf implements ReplaceFS: data is staged beside name, then renamed
// over it under the lock if name is still size bytes long.
func (d *dirFS) ReplaceIf(name string, data []byte, size int64) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	tmp := p + ".append-" + NewID() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("smartfam: replace %s: %w", name, err)
	}
	defer os.Remove(tmp) //nolint:errcheck // renamed away on success
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	now, _, err := d.Stat(name)
	if err != nil {
		return err
	}
	if now != size {
		return fmt.Errorf("%w: %s is %d bytes, read at %d", ErrLogChanged, name, now, size)
	}
	d.st.rewrites[name]++
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("smartfam: replace %s: %w", name, err)
	}
	return nil
}

// ReadFrom reads everything from off to the current end of the named file.
func ReadFrom(fsys FS, name string, off int64) ([]byte, error) {
	size, _, err := fsys.Stat(name)
	if err != nil {
		return nil, err
	}
	if off >= size {
		return nil, nil
	}
	buf := make([]byte, size-off)
	n, err := fsys.ReadAt(name, buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// shareAttempts and shareBackoff are the one retry policy for share
// operations: at most four attempts, 2 ms before the second, doubling.
const (
	shareAttempts = 4
	shareBackoff  = 2 * time.Millisecond
)

// retryShare runs op under the share retry policy, so a transient share
// error neither fails an invocation, eats a computed result, nor makes the
// recovery scan misclassify work. op counts its own failures. A done ctx
// stops the retries; the error returned is op's last.
func retryShare(ctx context.Context, op func() error) error {
	backoff := shareBackoff
	var err error
	for attempt := 0; attempt < shareAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return err
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}
