package nfs

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"time"

	"sync"

	"mcsd/internal/metrics"
	"mcsd/internal/smartfam"
)

// DefaultCacheBytes is the default block-cache capacity.
const DefaultCacheBytes = 64 << 20

// version is the freshness token for a file's cached blocks: blocks are
// valid only while the remote Stat reports the same size and mtime.
type version struct {
	size    int64
	mtimeNs int64
}

// blockKey addresses one MaxChunk-aligned block of one file.
type blockKey struct {
	name  string
	chunk int64
}

type block struct {
	key  blockKey
	data []byte
}

type fileEntry struct {
	ver    version
	blocks map[int64]*list.Element
}

// cacheCounters caches the hot-path metric handles.
type cacheCounters struct {
	hits          *metrics.Counter
	misses        *metrics.Counter
	invalidations *metrics.Counter
	evictions     *metrics.Counter
	bytesSaved    *metrics.Counter
}

// BlockCache is a host-side LRU cache of MaxChunk-aligned file blocks,
// keyed (name, chunk index) and validated by the file's remote size+mtime.
// It holds the bytes that would otherwise re-cross the 1 GbE share on
// every re-read — the exact traffic the paper's host-only baseline drowns
// in. Safe for concurrent use.
type BlockCache struct {
	mu    sync.Mutex
	cap   int64
	used  int64
	lru   *list.List // front = most recently used
	files map[string]*fileEntry

	reg *metrics.Registry
	met cacheCounters
}

// NewBlockCache returns a cache bounded to capacity bytes (<= 0 selects
// DefaultCacheBytes) reporting into reg (nil creates a private registry).
func NewBlockCache(capacity int64, reg *metrics.Registry) *BlockCache {
	if capacity <= 0 {
		capacity = DefaultCacheBytes
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &BlockCache{
		cap:   capacity,
		lru:   list.New(),
		files: make(map[string]*fileEntry),
		reg:   reg,
		met: cacheCounters{
			hits:          reg.Counter(metrics.NFSCacheHits),
			misses:        reg.Counter(metrics.NFSCacheMisses),
			invalidations: reg.Counter(metrics.NFSCacheInvalidations),
			evictions:     reg.Counter(metrics.NFSCacheEvictions),
			bytesSaved:    reg.Counter(metrics.NFSCacheBytesSaved),
		},
	}
}

// Metrics returns the registry the cache reports into.
func (bc *BlockCache) Metrics() *metrics.Registry { return bc.reg }

// Used returns the bytes currently cached.
func (bc *BlockCache) Used() int64 {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.used
}

// Blocks returns the number of cached blocks.
func (bc *BlockCache) Blocks() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.lru.Len()
}

// get returns the cached block if present and still valid for ver. A
// version mismatch drops every block of the file (the remote changed under
// us).
func (bc *BlockCache) get(name string, chunk int64, ver version) ([]byte, bool) {
	bc.mu.Lock()
	fe := bc.files[name]
	if fe != nil && fe.ver != ver {
		bc.invalidateLocked(name, fe)
		fe = nil
	}
	if fe != nil {
		if el, ok := fe.blocks[chunk]; ok {
			bc.lru.MoveToFront(el)
			data := el.Value.(*block).data
			bc.mu.Unlock()
			bc.met.hits.Inc()
			return data, true
		}
	}
	bc.mu.Unlock()
	bc.met.misses.Inc()
	return nil, false
}

// put inserts (or refreshes) a block fetched at version ver, evicting LRU
// blocks to stay within capacity. data ownership passes to the cache.
func (bc *BlockCache) put(name string, chunk int64, ver version, data []byte) {
	if int64(len(data)) > bc.cap {
		return
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	fe := bc.files[name]
	if fe != nil && fe.ver != ver {
		bc.invalidateLocked(name, fe)
		fe = nil
	}
	if fe == nil {
		fe = &fileEntry{ver: ver, blocks: make(map[int64]*list.Element)}
		bc.files[name] = fe
	}
	if el, ok := fe.blocks[chunk]; ok {
		b := el.Value.(*block)
		bc.used += int64(len(data)) - int64(len(b.data))
		b.data = data
		bc.lru.MoveToFront(el)
		return
	}
	for bc.used+int64(len(data)) > bc.cap {
		bc.evictLocked()
	}
	el := bc.lru.PushFront(&block{key: blockKey{name: name, chunk: chunk}, data: data})
	fe.blocks[chunk] = el
	bc.used += int64(len(data))
}

// evictLocked drops the least recently used block. Caller holds bc.mu.
func (bc *BlockCache) evictLocked() {
	el := bc.lru.Back()
	if el == nil {
		return
	}
	b := el.Value.(*block)
	bc.lru.Remove(el)
	bc.used -= int64(len(b.data))
	if fe := bc.files[b.key.name]; fe != nil {
		delete(fe.blocks, b.key.chunk)
		if len(fe.blocks) == 0 {
			delete(bc.files, b.key.name)
		}
	}
	bc.met.evictions.Inc()
}

// invalidateLocked drops every block of name. Caller holds bc.mu.
func (bc *BlockCache) invalidateLocked(name string, fe *fileEntry) {
	for _, el := range fe.blocks {
		b := el.Value.(*block)
		bc.lru.Remove(el)
		bc.used -= int64(len(b.data))
		bc.met.invalidations.Inc()
	}
	delete(bc.files, name)
}

// InvalidateFile drops every cached block of name.
func (bc *BlockCache) InvalidateFile(name string) {
	bc.mu.Lock()
	if fe := bc.files[name]; fe != nil {
		bc.invalidateLocked(name, fe)
	}
	bc.mu.Unlock()
}

// CachedFS fronts a Client with a BlockCache: reads are served from
// validated local blocks (one Stat RPC — zero payload bytes — replaces the
// data transfer on a warm hit), and every local mutation invalidates the
// file's blocks so the host never reads its own writes stale. It
// implements smartfam.FS, so it slots directly into core.Runtime.AttachSD
// and the smartFAM client's result reads.
//
// Consistency: validation is by Stat size+mtime, so a remote writer whose
// change lands within the filesystem's mtime granularity AND keeps the
// size identical can go unnoticed; the share's writers (smartFAM daemon,
// this host) only ever append or replace, which changes the size.
type CachedFS struct {
	t     *Client
	cache *BlockCache
}

// NewCachedFS fronts t with cache (nil creates a DefaultCacheBytes cache).
func NewCachedFS(t *Client, cache *BlockCache) *CachedFS {
	if cache == nil {
		cache = NewBlockCache(0, nil)
	}
	return &CachedFS{t: t, cache: cache}
}

// Cache returns the underlying block cache.
func (c *CachedFS) Cache() *BlockCache { return c.cache }

// Stat implements smartfam.FS (pass-through: stats are never cached, they
// are the validation signal).
func (c *CachedFS) Stat(name string) (int64, time.Time, error) { return c.t.Stat(name) }

// List implements smartfam.FS.
func (c *CachedFS) List() ([]string, error) { return c.t.List() }

// Create implements smartfam.FS, invalidating the file's blocks.
func (c *CachedFS) Create(name string) error {
	err := c.t.Create(name)
	c.cache.InvalidateFile(name)
	return err
}

// Append implements smartfam.FS, invalidating the file's blocks (even on
// error: a disconnect mid-append leaves the remote state uncertain).
func (c *CachedFS) Append(name string, data []byte) error {
	err := c.t.Append(name, data)
	c.cache.InvalidateFile(name)
	return err
}

// Remove implements smartfam.FS, invalidating the file's blocks.
func (c *CachedFS) Remove(name string) error {
	err := c.t.Remove(name)
	c.cache.InvalidateFile(name)
	return err
}

// Rename implements smartfam.FS, invalidating both names.
func (c *CachedFS) Rename(oldname, newname string) error {
	err := c.t.Rename(oldname, newname)
	c.cache.InvalidateFile(oldname)
	c.cache.InvalidateFile(newname)
	return err
}

// WriteFile replaces a file's contents, invalidating the file's blocks.
func (c *CachedFS) WriteFile(name string, data []byte) error {
	err := c.t.WriteFile(name, data)
	c.cache.InvalidateFile(name)
	return err
}

// ReadAt implements smartfam.FS. One Stat validates the file's cached
// blocks; the read is then assembled from warm blocks locally, with any
// missing span fetched in a single pipelined transfer and cached
// block-by-block.
func (c *CachedFS) ReadAt(name string, p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	size, mtime, err := c.t.Stat(name)
	if err != nil {
		return 0, err
	}
	ver := version{size: size, mtimeNs: mtime.UnixNano()}
	return c.readAtVersioned(name, p, off, ver)
}

func (c *CachedFS) readAtVersioned(name string, p []byte, off int64, ver version) (int, error) {
	size := ver.size
	if off >= size {
		return 0, io.EOF
	}
	serveLen := int64(len(p))
	if avail := size - off; serveLen > avail {
		serveLen = avail
	}
	firstChunk := off / MaxChunk
	lastChunk := (off + serveLen - 1) / MaxChunk

	blocks := make(map[int64][]byte, lastChunk-firstChunk+1)
	hit := make(map[int64]bool, lastChunk-firstChunk+1)
	missFirst, missLast := int64(-1), int64(-1)
	for ci := firstChunk; ci <= lastChunk; ci++ {
		if b, ok := c.cache.get(name, ci, ver); ok {
			blocks[ci] = b
			hit[ci] = true
			continue
		}
		if missFirst < 0 {
			missFirst = ci
		}
		missLast = ci
	}
	if missFirst >= 0 {
		// One pipelined transfer covers the whole missing span (it may
		// refetch a warm block sandwiched between two cold ones — the RTT
		// saved by a single windowed transfer outweighs the refetch).
		start := missFirst * MaxChunk
		end := (missLast + 1) * MaxChunk
		if end > size {
			end = size
		}
		buf := make([]byte, end-start)
		n, err := c.t.ReadAt(name, buf, start)
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, err
		}
		for ci := missFirst; ci <= missLast; ci++ {
			bs := ci*MaxChunk - start
			if bs >= int64(n) {
				break
			}
			be := bs + MaxChunk
			if be > int64(n) {
				be = int64(n)
			}
			blk := make([]byte, be-bs)
			copy(blk, buf[bs:be])
			blocks[ci] = blk
			c.cache.put(name, ci, ver, blk)
		}
	}

	served := int64(0)
	for served < serveLen {
		pos := off + served
		ci := pos / MaxChunk
		b := blocks[ci]
		bs := pos - ci*MaxChunk
		if bs >= int64(len(b)) {
			break // file shrank between Stat and fetch
		}
		n := copy(p[served:serveLen], b[bs:])
		if hit[ci] {
			c.cache.met.bytesSaved.Add(int64(n))
		}
		served += int64(n)
	}
	if served < int64(len(p)) {
		return int(served), io.EOF
	}
	return int(served), nil
}

// ReadFile fetches a whole file through the cache.
func (c *CachedFS) ReadFile(name string) ([]byte, error) {
	size, mtime, err := c.t.Stat(name)
	if err != nil {
		return nil, err
	}
	ver := version{size: size, mtimeNs: mtime.UnixNano()}
	buf := make([]byte, size)
	n, err := c.readAtVersioned(name, buf, 0, ver)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// OpenReader streams a file through the cache.
func (c *CachedFS) OpenReader(name string) (io.ReadCloser, error) {
	return c.OpenReaderAt(name, 0)
}

// OpenReaderAt returns a streaming reader that serves warm blocks locally
// and streams cold spans from the wire (with the client's read-ahead),
// caching them as it goes. The stream length is the open-time size.
func (c *CachedFS) OpenReaderAt(name string, off int64) (io.ReadCloser, error) {
	size, mtime, err := c.t.Stat(name)
	if err != nil {
		return nil, err
	}
	return &cachedReader{
		c:    c,
		name: name,
		pos:  off,
		size: size,
		ver:  version{size: size, mtimeNs: mtime.UnixNano()},
	}, nil
}

// cachedReader streams a file at block granularity: warm blocks come from
// the cache, cold runs come from one wire stream kept open across
// consecutive cold blocks so the client's read-ahead stays effective.
type cachedReader struct {
	c        *CachedFS
	name     string
	pos      int64
	size     int64
	ver      version
	inner    io.ReadCloser // wire stream, positioned at innerPos
	innerPos int64
	closed   bool
}

func (r *cachedReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("nfs: read from closed reader for %s", r.name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if r.pos >= r.size {
		return 0, io.EOF
	}
	ci := r.pos / MaxChunk
	bs := ci * MaxChunk
	blockLen := r.size - bs
	if blockLen > MaxChunk {
		blockLen = MaxChunk
	}
	if b, ok := r.c.cache.get(r.name, ci, r.ver); ok && int64(len(b)) == blockLen {
		// Warm: the wire stream (if any) is now mispositioned; drop it.
		if r.inner != nil {
			r.inner.Close()
			r.inner = nil
		}
		n := copy(p, b[r.pos-bs:])
		r.c.cache.met.bytesSaved.Add(int64(n))
		r.pos += int64(n)
		return n, nil
	}
	if r.inner == nil || r.innerPos != bs {
		if r.inner != nil {
			r.inner.Close()
		}
		in, err := r.c.t.OpenReaderAt(r.name, bs)
		if err != nil {
			return 0, err
		}
		r.inner = in
		r.innerPos = bs
	}
	buf := make([]byte, blockLen)
	if _, err := io.ReadFull(r.inner, buf); err != nil {
		r.inner.Close()
		r.inner = nil
		return 0, fmt.Errorf("nfs: streaming %s block %d: %w", r.name, ci, err)
	}
	r.innerPos = bs + blockLen
	r.c.cache.put(r.name, ci, r.ver, buf)
	n := copy(p, buf[r.pos-bs:])
	r.pos += int64(n)
	return n, nil
}

func (r *cachedReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.inner != nil {
		err := r.inner.Close()
		r.inner = nil
		return err
	}
	return nil
}

var _ smartfam.FS = (*CachedFS)(nil)
