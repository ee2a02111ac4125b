package server

import (
	"container/list"
	"strconv"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used result cache. Keys
// are the canonical solve keys (graph fingerprint + solve options); a
// hit serves a finished SolveResult with zero optimizer work.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // *cacheEntry, front = most recent
	items map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key string
	res *SolveResult
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached result and marks it most recently used.
func (c *lruCache) Get(key string) (*SolveResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).res, true
}

// Add inserts (or refreshes) a result, evicting the least recently used
// entry when over capacity. A nil result or non-positive capacity is a
// no-op.
func (c *lruCache) Add(key string, res *SolveResult) {
	if res == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached results.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// solveKey builds the canonical cache key: the family and the instance
// fingerprint (which covers linear terms, couplings, offsets and sense
// for compiled families — two instances over the same coupling graph
// never alias) plus every option that affects the result. Deadlines
// and wait-mode are deliberately excluded — they change whether a
// solve finishes, never what it computes — and only successful results
// are cached.
func solveKey(fingerprint string, req *SolveRequest) string {
	// Appended into one sized buffer, not Sprintf'd — but the string is
	// persistent state (WAL records and recovered cache entries carry it)
	// and must stay "%s|f=%s|p=%d|s=%s|o=%s|m=%s|seed=%d" byte for byte.
	b := make([]byte, 0, len(fingerprint)+len(req.Problem)+len(req.Strategy)+len(req.Optimizer)+len(req.Model)+64)
	b = append(b, fingerprint...)
	b = append(b, "|f="...)
	b = append(b, req.Problem...)
	b = append(b, "|p="...)
	b = strconv.AppendInt(b, int64(req.Depth), 10)
	b = append(b, "|s="...)
	b = append(b, req.Strategy...)
	b = append(b, "|o="...)
	b = append(b, req.Optimizer...)
	b = append(b, "|m="...)
	b = append(b, req.Model...)
	b = append(b, "|seed="...)
	b = strconv.AppendInt(b, req.Seed, 10)
	return string(b)
}
