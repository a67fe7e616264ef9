package advisor

import (
	"sync"
	"sync/atomic"

	"knives/internal/statestore"
)

// onceCache is the service's one memoizing cache, behind advice, replay,
// exec, migrate, and observe dedup alike: a FIFO-bounded map from a key to
// a value computed at most once. The cache mutex only guards the map; the
// computation runs under the entry's once, so different keys compute
// concurrently and identical concurrent requests collapse into one run.
// The caches are rebuildable and deliberately NOT journaled.
type onceCache[K comparable, V any] struct {
	mu      sync.Mutex
	entries *statestore.FIFO[K, *onceEntry[V]]

	requests atomic.Int64 // Get calls
	hits     atomic.Int64 // Get calls answered without running compute
}

// onceEntry is one key's value, resolved under once.
type onceEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// newOnceCache returns an empty cache; capacity <= 0 disables eviction.
func newOnceCache[K comparable, V any](capacity int) *onceCache[K, V] {
	return &onceCache[K, V]{entries: statestore.NewFIFO[K, *onceEntry[V]](capacity)}
}

// Get answers k, running compute if no entry for k exists yet. hit reports
// that this caller did not run compute: it found the value resolved, or
// blocked on the caller that ran it. Attribution is by who ran the once,
// not who created the entry — a concurrent caller can find the entry yet
// win the race and do the work while the creator waits.
//
// A failed compute must not poison its key: its entry is dropped (only if
// it is still the live one — an eviction plus re-creation may have
// replaced it), every caller blocked on it gets the error, and none of
// them counts as a hit. An entry evicted while resolving still completes
// for the callers holding it; it is simply no longer findable.
func (c *onceCache[K, V]) Get(k K, compute func() (V, error)) (v V, hit bool, err error) {
	c.requests.Add(1)
	c.mu.Lock()
	e, ok := c.entries.Get(k)
	if !ok {
		e = &onceEntry[V]{}
		c.entries.Insert(k, e)
	}
	c.mu.Unlock()

	ran := false
	e.once.Do(func() {
		ran = true
		e.val, e.err = compute()
	})
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.entries.Get(k); ok && cur == e {
			c.entries.Drop(k)
		}
		c.mu.Unlock()
		return v, false, e.err
	}
	if !ran {
		c.hits.Add(1)
	}
	return e.val, !ran, nil
}

// Put installs an already-resolved value under k, replacing any entry.
// It is not a request and counts no hit, so misses (requests - hits) never
// go negative.
func (c *onceCache[K, V]) Put(k K, v V) {
	e := &onceEntry[V]{val: v}
	e.once.Do(func() {}) // mark resolved
	c.mu.Lock()
	c.entries.Insert(k, e)
	c.mu.Unlock()
}

// DropFunc removes every entry whose key the predicate selects.
func (c *onceCache[K, V]) DropFunc(pred func(K) bool) {
	c.mu.Lock()
	c.entries.DropFunc(pred)
	c.mu.Unlock()
}

// Len returns the number of live entries.
func (c *onceCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}
