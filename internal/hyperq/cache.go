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
//     fingerprint, storing a serialized SQL-B template with literal slots.
//     A hit skips bind, transform and serialization; the statement's
//     literals are spliced into the template.
//   - request entries ("R|..." keys): keyed by the raw request text, storing
//     the final instantiated SQL. A hit additionally skips parsing and
//     fingerprinting for byte-identical repeats — the common case for
//     tool-generated workloads.
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

// cacheEntry is one cached translation. Exactly one of tpl/sql is meaningful:
// fingerprint entries carry the template, request entries the final SQL.
type cacheEntry struct {
	key string
	// tpl is the SQL-B template with literal slots (fingerprint tier).
	tpl fingerprint.Template
	// exact marks a fingerprint entry whose translated text depends on the
	// literal values (a lifted literal did not survive to the output): the
	// entry only matches requests whose literal signature equals litsig.
	exact  bool
	litsig string
	// sql is the final instantiated SQL (request tier).
	sql string
	// cols is the frontend column metadata of the translated statement;
	// shared read-only by all hits.
	cols []xtra.Col
	// cmd is the statement's command name for the response header.
	cmd string
	// feats replays the features recorded during the original translation so
	// workload statistics are independent of cache hits.
	feats feature.Set
	size  int
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
	n := len(e.key) + len(e.sql) + len(e.litsig) + len(e.cmd) + 96
	n += e.tpl.Size()
	n += len(e.cols) * 48
	for _, c := range e.cols {
		n += len(c.Name)
	}
	return n
}
