package hyperq

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"sync"

	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/xtra"
)

// translationCache is the gateway-wide statement translation cache (sharded
// LRU, bounded by entry count and retained bytes). It holds two entry tiers
// sharing one budget:
//
//   - fingerprint entries (tier "F"): keyed by the canonical statement
//     fingerprint, storing a Plan whose SQL-B is a template with literal
//     slots. A hit skips bind, transform and serialization; the statement's
//     literals are spliced into the template.
//   - request entries (tier "R"): keyed by the raw request text, storing
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
	mu  sync.Mutex
	lru *list.List // front = most recently used; values are *cacheEntry
	// index finds an entry by its key's hash, and get compares the whole
	// key: a slot is 16 bytes whatever the key. Two keys of one hash share a
	// slot, the later put's.
	index map[uint64]*list.Element
	bytes int
}

// cacheKey identifies a translation-cache entry: the statement body (the
// raw request text in the request tier, the fingerprint key in the
// fingerprint tier) and everything a cached translation depends on besides
// it but the target dialect, which is the gateway's. Looking one up builds
// no string.
type cacheKey struct {
	tier string // "R" request tier, "F" fingerprint tier
	// catalog is the global catalog version; session and overlay are the
	// owning session and its overlay catalog's version for a session whose
	// overlay ever changed (overlay objects can shadow global ones through
	// views, invisible to the statement-level table check), 0 otherwise.
	catalog, session, overlay uint64
	settings                  string // the session settings' signature
	body                      string
}

// size approximates the bytes a key retains.
func (k *cacheKey) size() int {
	return len(k.tier) + len(k.settings) + len(k.body) + 24
}

// cacheSeed seeds the key hash.
var cacheSeed = maphash.MakeSeed()

// hash hashes every field of the key.
func (k *cacheKey) hash() uint64 {
	var h maphash.Hash
	h.SetSeed(cacheSeed)
	var n [24]byte
	binary.LittleEndian.PutUint64(n[0:], k.catalog)
	binary.LittleEndian.PutUint64(n[8:], k.session)
	binary.LittleEndian.PutUint64(n[16:], k.overlay)
	_, _ = h.Write(n[:]) // a maphash.Hash never fails a write
	for _, f := range [...]string{k.tier, k.settings, k.body} {
		_, _ = h.WriteString(f)
		_ = h.WriteByte(0)
	}
	return h.Sum64()
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
	// conv keeps the result conversion a cached plan last compiled; every
	// instantiation and request-tier copy of it shares the memo. nil on a
	// plan no cache holds.
	conv *convertMemo
}

// cacheEntry is one cached plan under its key.
type cacheEntry struct {
	key  cacheKey
	plan Plan
	// exact marks a fingerprint entry whose translated text depends on the
	// literal values (a lifted literal did not survive to the output): the
	// entry only matches requests whose literal signature equals litsig.
	exact  bool
	litsig string
	size   int
	// hash is a request-tier entry's statement-shape hash and fpID its
	// rendering (when the gateway traces), so a hit neither hashes its text
	// nor renders the id again.
	hash uint64
	fpID string
	// slot is key's hash, the entry's index in its shard (set by put).
	slot uint64
}

func newTranslationCache(maxEntries, maxBytes int) *translationCache {
	c := &translationCache{maxEntries: maxEntries, maxBytes: maxBytes}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].index = make(map[uint64]*list.Element)
	}
	return c
}

// locate returns the shard that holds key, and key's hash.
func (c *translationCache) locate(key *cacheKey) (*cacheShard, uint64) {
	h := key.hash()
	return &c.shards[h%cacheShards], h
}

// get returns the entry for key, promoting it to most recently used.
func (c *translationCache) get(key cacheKey) *cacheEntry {
	s, h := c.locate(&key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[h]
	if !ok || el.Value.(*cacheEntry).key != key {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts (or replaces) an entry and returns how many entries were
// evicted to stay within the per-shard budget. Bounds are divided evenly
// across shards so no shard lock is ever held while touching another shard.
func (c *translationCache) put(e *cacheEntry) (evicted int) {
	s, h := c.locate(&e.key)
	e.slot = h
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[h]; ok {
		old := el.Value.(*cacheEntry)
		s.bytes += e.size - old.size
		el.Value = e
		s.lru.MoveToFront(el)
	} else {
		s.index[h] = s.lru.PushFront(e)
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
		delete(s.index, victim.slot)
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
	n := e.key.size() + len(e.plan.sql) + len(e.litsig) + len(e.plan.cmd) + len(e.fpID) + 96
	n += e.plan.tpl.Size()
	n += len(e.plan.cols) * 48
	for _, c := range e.plan.cols {
		n += len(c.Name)
	}
	return n
}
