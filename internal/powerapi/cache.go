package powerapi

import (
	"container/list"
	"sync"
	"time"
)

// cached is one rendered response body held by the cache and returned by
// the coalescer: everything needed to replay the response without
// touching the broker.
type cached struct {
	body        []byte
	contentType string
	status      int
	// complete mirrors the telemetry's own completeness flag: partial
	// results (dead subtree, evicted window) are cached for a fraction of
	// the TTL so a recovered fabric shows through quickly.
	complete bool
	// source is surfaced as X-Source when non-empty: "tsdb" marks an
	// answer (or part of one) served from a node's durable store rather
	// than its in-memory ring.
	source string
}

// responseCache is a TTL+LRU cache of rendered responses keyed by
// (endpoint, jobid, mode). Entries for a job are invalidated when the
// job's finish event arrives: a running job's telemetry grows every
// sample, but the moment it completes its window is immutable, so the
// first post-completion fetch caches the final answer.
type responseCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	now   func() time.Time

	hits, misses uint64
}

// cacheSize is the gateway's LRU capacity in entries.
const cacheSize = 1024

type cacheEntry struct {
	key     string
	jobID   uint64 // 0 = not job-scoped
	val     cached
	expires time.Time
}

func newResponseCache(max int, now func() time.Time) *responseCache {
	return &responseCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		now:   now,
	}
}

// get returns the fresh entry for key, if any, and promotes it.
func (c *responseCache) get(key string) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return cached{}, false
	}
	ent := el.Value.(*cacheEntry)
	if c.now().After(ent.expires) {
		c.ll.Remove(el)
		delete(c.items, key)
		c.misses++
		return cached{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ent.val, true
}

// put stores a rendered response under key with the given TTL, evicting
// the least recently used entry when full. A non-positive TTL disables
// caching for the call.
func (c *responseCache) put(key string, jobID uint64, val cached, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.val = val
		ent.jobID = jobID
		ent.expires = c.now().Add(ttl)
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	ent := &cacheEntry{key: key, jobID: jobID, val: val, expires: c.now().Add(ttl)}
	c.items[key] = c.ll.PushFront(ent)
}

// invalidateJob drops every entry cached for jobID — called from the
// job.finish event subscription so completion is visible on the very
// next request, not a TTL later.
func (c *responseCache) invalidateJob(jobID uint64) {
	if jobID == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if ent := el.Value.(*cacheEntry); ent.jobID == jobID {
			c.ll.Remove(el)
			delete(c.items, ent.key)
		}
	}
}

// stats returns hit/miss counters and the current entry count.
func (c *responseCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
