package tuple

// IntMap is an insert-only open-addressing map from Tuple to int, keyed on
// unencoded tuples (no key string is ever built). It is the pooled grouping
// table of the batch-update hot paths: Reset clears the map while keeping
// its slot array and key arena, so a map reused across batches stops
// allocating once it has grown to the working-set size. Reset costs
// O(keys stored), not O(slot capacity): a map that once held a huge batch
// keeps its slot array, and the small batches after it must not pay for
// clearing all of it.
//
// Keys passed to Put are stored by reference and must stay valid (and
// unmodified) until the next Reset; PutCopy copies the key into an internal
// arena for callers whose key lives in a reused scratch buffer. There is no
// deletion. The zero value is ready to use. Not safe for concurrent use.
type IntMap struct {
	slots []intMapSlot
	mask  uint64
	count int
	last  int32 // 1 + index of the most recently filled slot, 0 when empty
	seed  uint64
	arena Tuple // backing storage for PutCopy keys, truncated by Reset
}

// intMapSlot is one open-addressing slot; key == nil marks it empty (empty
// tuples are stored as a non-nil zero-length slice). The filled slots form
// a chain through prev (1 + index of the slot filled before this one, 0 for
// the first), so a sparse Reset visits only them at no extra allocation.
// hash keeps the low 32 bits of the key's hash: all that probing a slot
// array of up to 2^31 slots reads, and it keeps the slot at 40 bytes.
type intMapSlot struct {
	hash uint32
	prev int32
	key  Tuple
	val  int
}

const intMapMinSlots = 8

// emptyTuple is the non-nil representative of the zero-arity key.
var emptyTuple = Tuple{}

// Len returns the number of stored keys.
func (m *IntMap) Len() int { return m.count }

// ensureSeed draws the map's hash seed on first use. The seed never
// changes once set (0 is the unset sentinel; NewSeed is redrawn in the
// astronomically unlikely case it returns 0), so hashes returned by
// GetHash stay valid for a later PutHashed.
func (m *IntMap) ensureSeed() {
	for m.seed == 0 {
		m.seed = NewSeed()
	}
}

// Get returns the value stored for t.
func (m *IntMap) Get(t Tuple) (int, bool) {
	v, _, ok := m.GetHash(t)
	return v, ok
}

// GetHash is Get returning additionally the key's hash, for a subsequent
// PutHashed/PutCopyHashed on a miss — the get-then-put pattern of the
// batch grouping paths then hashes each distinct tuple once.
func (m *IntMap) GetHash(t Tuple) (int, uint64, bool) {
	m.ensureSeed()
	h := Hash(m.seed, t)
	if m.count == 0 {
		return 0, h, false
	}
	for i := h & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == nil {
			return 0, h, false
		}
		if s.hash == uint32(h) && s.key.Equal(t) {
			return s.val, h, true
		}
	}
}

// Put stores {t → v}, referencing t directly. t must not already be present
// (the callers' get-then-put pattern guarantees it) and must stay valid
// until the next Reset.
func (m *IntMap) Put(t Tuple, v int) {
	m.ensureSeed()
	m.PutHashed(Hash(m.seed, t), t, v)
}

// PutHashed is Put with the hash precomputed by GetHash.
func (m *IntMap) PutHashed(h uint64, t Tuple, v int) {
	if m.count >= len(m.slots)*3/4 {
		m.grow()
	}
	if t == nil {
		t = emptyTuple
	}
	for i := h & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == nil {
			*s = intMapSlot{hash: uint32(h), prev: m.last, key: t, val: v}
			m.last = int32(i) + 1
			m.count++
			return
		}
	}
}

// PutCopy is Put with the key copied into the map's internal arena, for
// keys living in a scratch buffer the caller will overwrite.
func (m *IntMap) PutCopy(t Tuple, v int) {
	m.ensureSeed()
	m.PutCopyHashed(Hash(m.seed, t), t, v)
}

// PutCopyHashed is PutCopy with the hash precomputed by GetHash.
func (m *IntMap) PutCopyHashed(h uint64, t Tuple, v int) {
	start := len(m.arena)
	m.arena = append(m.arena, t...)
	m.PutHashed(h, m.arena[start:len(m.arena):len(m.arena)], v)
}

// Reset empties the map, keeping the slot array and key arena for reuse.
// Keys stored by reference are released; arena-copied keys are overwritten
// by subsequent PutCopy calls.
//
// A sparse map (fewer keys than an eighth of its slots) clears just its
// occupied slots; a dense one clears the whole slot array in one pass.
func (m *IntMap) Reset() {
	if m.count*8 < len(m.slots) {
		for i := m.last; i != 0; {
			s := &m.slots[i-1]
			i = s.prev
			*s = intMapSlot{}
		}
	} else if m.count > 0 {
		clear(m.slots)
	}
	m.count, m.last = 0, 0
	m.arena = m.arena[:0]
}

// grow doubles the slot array (allocating the initial one on first use) and
// reinserts the stored keys by their cached hashes, rebuilding the chain.
func (m *IntMap) grow() {
	old := m.slots
	n := 2 * len(old)
	if n < intMapMinSlots {
		n = intMapMinSlots
	}
	m.slots = make([]intMapSlot, n)
	m.mask = uint64(n - 1)
	i := m.last
	m.last = 0
	for i != 0 {
		s := &old[i-1]
		i = s.prev
		for j := uint64(s.hash) & m.mask; ; j = (j + 1) & m.mask {
			if m.slots[j].key == nil {
				m.slots[j] = intMapSlot{hash: s.hash, prev: m.last, key: s.key, val: s.val}
				m.last = int32(j) + 1
				break
			}
		}
	}
}
