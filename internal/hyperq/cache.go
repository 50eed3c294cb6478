package hyperq

import (
	"container/list"
	"sync"

	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/xtra"
)

// translationCache is the gateway-wide statement translation cache (sharded
// LRU, bounded by entry count and retained bytes). It holds two entry tiers
// sharing one budget:
//
//   - fingerprint entries ("F|..." keys): keyed by the canonical statement
//     fingerprint, storing a Plan whose SQL-B is a template with literal
//     slots. A hit skips bind, transform and serialization; the statement's
//     literals are spliced into the template.
//   - request entries ("R|..." keys): keyed by the raw request text, storing
//     the instantiated Plan of a request that ran as exactly one fingerprint-
//     tier plan. A hit additionally skips parsing and fingerprinting for
//     byte-identical repeats — the common case for tool-generated workloads.
//
// Entries are immutable after insertion; concurrent readers share them.
type translationCache struct {
	shards     [cacheShards]cacheShard
	maxEntries int
	maxBytes   int
}

const cacheShards = 16

// cacheBytes bounds a gateway's translation cache by retained bytes (the
// entry bound is Config.CacheEntries).
const cacheBytes = 32 << 20

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *cacheEntry
	index map[string]*list.Element
	bytes int
}

// Plan is one statement's translation: what bind, transform and serialize
// made of it, and everything the gateway needs to run it and deliver its
// results. Both cache tiers store one; nothing changes a Plan once it is
// built, so concurrent hits share it.
type Plan struct {
	// sql is the SQL-B text, "" when translation eliminated the statement. A
	// fingerprint-tier entry's plan holds tpl, the text with literal slots,
	// instead.
	sql string
	tpl fingerprint.Template
	// cols is the frontend column metadata of a result-set statement.
	cols []xtra.Col
	// cmd is the frontend activity name; "" answers with the backend's tag.
	cmd string
	// feats replays the features recorded during the original translation so
	// workload statistics are independent of cache hits.
	feats feature.Set
	// cacheable marks a plan the fingerprint tier served or stored: it
	// depends on nothing its cache key does not hold, so the request tier
	// may store it too.
	cacheable bool
	// bound is the transformed XTRA statement sql was serialized from, for
	// EXPLAIN and the catalog mirror of CREATE TABLE; cached plans drop it.
	bound xtra.Statement
}

// cacheEntry is one cached plan under its key.
type cacheEntry struct {
	key  string
	plan Plan
	// exact marks a fingerprint entry whose translated text depends on the
	// literal values (a lifted literal did not survive to the output): the
	// entry only matches requests whose literal signature equals litsig.
	exact  bool
	litsig string
	size   int
}

func newTranslationCache(maxEntries, maxBytes int) *translationCache {
	c := &translationCache{maxEntries: maxEntries, maxBytes: maxBytes}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].index = make(map[string]*list.Element)
	}
	return c
}

func (c *translationCache) shard(key string) *cacheShard {
	// FNV-1a over the key; cheap and stable.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// get returns the entry for key, promoting it to most recently used.
func (c *translationCache) get(key string) *cacheEntry {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts (or replaces) an entry and returns how many entries were
// evicted to stay within the per-shard budget. Bounds are divided evenly
// across shards so no shard lock is ever held while touching another shard.
func (c *translationCache) put(e *cacheEntry) (evicted int) {
	s := c.shard(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[e.key]; ok {
		old := el.Value.(*cacheEntry)
		s.bytes += e.size - old.size
		el.Value = e
		s.lru.MoveToFront(el)
	} else {
		s.index[e.key] = s.lru.PushFront(e)
		s.bytes += e.size
	}
	maxE := c.maxEntries / cacheShards
	if maxE < 1 {
		maxE = 1
	}
	maxB := c.maxBytes / cacheShards
	for s.lru.Len() > maxE || (s.bytes > maxB && s.lru.Len() > 1) {
		back := s.lru.Back()
		victim := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.index, victim.key)
		s.bytes -= victim.size
		evicted++
	}
	return evicted
}

// len reports the total entry count (test/diagnostic helper).
func (c *translationCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// entrySize approximates the retained bytes of an entry.
func (e *cacheEntry) entrySize() int {
	n := len(e.key) + len(e.plan.sql) + len(e.litsig) + len(e.plan.cmd) + 96
	n += e.plan.tpl.Size()
	n += len(e.plan.cols) * 48
	for _, c := range e.plan.cols {
		n += len(c.Name)
	}
	return n
}
