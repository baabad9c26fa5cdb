package mapreduce

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"reflect"
)

// wordTable is the task-local key index of the zero-copy emit path: an
// open-addressing hash table from byte-string keys to their emit records.
// It exists because the generic built-in map pays for features this path
// does not need — per-probe group matching over a sparse layout, tombstone
// bookkeeping, iteration support. Here a probe is one 16-byte slot load, a
// stored-hash compare, and (on hash match) one string compare against the
// record's interned key; iteration is never done through the table at all
// (the record arena is scanned linearly instead), so reset is a bulk clear.
//
// Slots store the full hash, biased so zero always means empty; capacity is
// a power of two, grown at 3/4 load by rehashing slots only (keys are never
// re-hashed — the stored hash is reused).
type wordTable[V any] struct {
	slots []internSlot[V]
	mask  uint64
	n     int
}

type internSlot[V any] struct {
	hash uint64
	rec  *kvrec[string, V]
}

// internInitSlots is the initial slot count; the table doubles as needed
// and keeps its size across tasks (successive tasks of one worker see
// similar vocabularies).
const internInitSlots = 1 << 10

func newWordTable[V any]() *wordTable[V] {
	return &wordTable[V]{slots: make([]internSlot[V], internInitSlots), mask: internInitSlots - 1}
}

// getWordTable hands a worker a recycled (empty, pre-grown) intern table.
func getWordTable[V any]() *wordTable[V] {
	if v := poolFor(reflect.TypeFor[wordTable[V]]()).Get(); v != nil {
		return v.(*wordTable[V])
	}
	return newWordTable[V]()
}

func putWordTable[V any](t *wordTable[V]) {
	t.reset()
	poolFor(reflect.TypeFor[wordTable[V]]()).Put(t)
}

// internSeedA and internSeedLen key internHash's short-key path; like
// hashSeed they are drawn once per process. The second load is keyed per
// key length: two lengths' loads can read the same bytes ("aaaaaaaaa" and
// "aaaaaaaaaa"), and xoring the length itself into a load would only move
// the collision to keys whose bytes differ by that xor.
var (
	internSeedA   = rand.Uint64()
	internSeedLen = func() (s [17]uint64) {
		for i := range s {
			s[i] = rand.Uint64()
		}
		return s
	}()
)

// internHash hashes a key's bytes, biased non-zero so it can double as the
// slot occupancy marker. Keys of up to 16 bytes — nearly every word — take
// an inline path in the style of wyhash's short-input case: two loads that
// together cover every byte (overlapping 8- or 4-byte little-endian loads,
// or bytes 0, n/2 and n-1 below 4 bytes), keyed by the seed for their
// length and folded through one 128-bit multiply. That costs about half of a
// maphash.Bytes call, which longer keys still use.
func internHash(kb []byte) uint64 {
	n := len(kb)
	var a, b uint64
	switch {
	case n > 16:
		return maphash.Bytes(hashSeed, kb) | 1
	case n >= 8:
		a = binary.LittleEndian.Uint64(kb)
		b = binary.LittleEndian.Uint64(kb[n-8:])
	case n >= 4:
		a = uint64(binary.LittleEndian.Uint32(kb))
		b = uint64(binary.LittleEndian.Uint32(kb[n-4:]))
	case n > 0:
		a = uint64(kb[0])<<16 | uint64(kb[n>>1])<<8 | uint64(kb[n-1])
	}
	hi, lo := bits.Mul64(a^internSeedA, b^internSeedLen[n])
	return (hi ^ lo) | 1
}

// lookup returns the record interned for kb (whose hash is h), or nil.
func (t *wordTable[V]) lookup(kb []byte, h uint64) *kvrec[string, V] {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.hash == 0 {
			return nil
		}
		if s.hash == h && s.rec.key == string(kb) {
			return s.rec
		}
		i = (i + 1) & t.mask
	}
}

// insert adds a record under hash h. The key must not already be present.
func (t *wordTable[V]) insert(h uint64, rec *kvrec[string, V]) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	i := h & t.mask
	for t.slots[i].hash != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = internSlot[V]{hash: h, rec: rec}
	t.n++
}

func (t *wordTable[V]) grow() {
	old := t.slots
	t.slots = make([]internSlot[V], 2*len(old))
	t.mask = uint64(len(t.slots)) - 1
	for _, s := range old {
		if s.hash == 0 {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].hash != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// reset empties the table, keeping its capacity for the next task.
func (t *wordTable[V]) reset() {
	clear(t.slots)
	t.n = 0
}
