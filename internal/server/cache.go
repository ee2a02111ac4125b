package server

import (
	"container/list"
	"crypto/sha256"
	"strconv"
	"sync"
)

// lru is a fixed-capacity least-recently-used map. The server keeps two:
// the result cache (solve key → finished SolveResult; a hit costs zero
// optimizer work) and the memo (request bytes → solve key; a hit skips
// decode, compile and fingerprint).
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // *lruEntry, front = most recent
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *lru[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry[K, V]).val, true
}

// Add inserts (or refreshes) a value, evicting the least recently used
// entry when over capacity. A non-positive capacity makes it a no-op.
func (c *lru[K, V]) Add(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Purge drops every entry.
func (c *lru[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// memoKey names one request's bytes — a whole /v1/solve body, or one
// item's span of a batch body — under one registry generation. The
// digest is SHA-256, not a 64-bit hash, so a crafted body cannot alias
// another instance's answer.
type memoKey struct {
	sum [sha256.Size]byte
	gen uint64
}

// memoPerAnswer bounds the memo at this many entries per result-cache
// entry: one answer is reached by a few spellings of its request (wait
// true or false, a single body or a batch item).
const memoPerAnswer = 4

// solveKey builds the canonical cache key: the family and the instance
// fingerprint (which covers linear terms, couplings, offsets and sense
// for compiled families — two instances over the same coupling graph
// never alias) plus every option that affects the result. Deadlines
// and wait-mode are deliberately excluded — they change whether a
// solve finishes, never what it computes — and only successful results
// are cached.
func solveKey(fingerprint string, req *SolveRequest) string {
	// The string is persistent state: WAL records and recovered cache
	// entries carry it, so it must stay
	// "%s|f=%s|p=%d|s=%s|o=%s|m=%s|seed=%d" byte for byte. One
	// concatenation, not Sprintf: boxing seven arguments would cost
	// TestHotPathAllocs's decode path two to three allocations.
	return fingerprint + "|f=" + req.Problem + "|p=" + strconv.Itoa(req.Depth) + "|s=" + req.Strategy +
		"|o=" + req.Optimizer + "|m=" + req.Model + "|seed=" + strconv.FormatInt(req.Seed, 10)
}
