package hyperq

import (
	"fmt"
	"sync"
	"testing"
)

func testEntry(key string, size int) *cacheEntry {
	return &cacheEntry{key: testKey(key), plan: Plan{sql: "SELECT 1"}, size: size}
}

func testKey(body string) cacheKey { return cacheKey{tier: "R", body: body} }

func TestCacheGetPut(t *testing.T) {
	c := newTranslationCache(64, 1<<20)
	if c.get(testKey("k")) != nil {
		t.Fatal("hit on empty cache")
	}
	c.put(testEntry("k", 100))
	e := c.get(testKey("k"))
	if e == nil || e.plan.sql != "SELECT 1" {
		t.Fatalf("entry = %+v", e)
	}
	// Replacement keeps a single entry.
	c.put(testEntry("k", 120))
	if c.len() != 1 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestCacheEntryBoundEviction(t *testing.T) {
	// One entry per shard allowed.
	c := newTranslationCache(cacheShards, 1<<20)
	evicted := 0
	for i := 0; i < 10*cacheShards; i++ {
		evicted += c.put(testEntry(fmt.Sprintf("key-%d", i), 100))
	}
	if c.len() > cacheShards {
		t.Fatalf("len = %d, want <= %d", c.len(), cacheShards)
	}
	if evicted == 0 {
		t.Fatal("no evictions reported")
	}
}

func TestCacheByteBoundEviction(t *testing.T) {
	// Per-shard byte budget of 1000: a 400-byte entry evicts older ones once
	// a shard holds three.
	c := newTranslationCache(1<<20, 1000*cacheShards)
	for i := 0; i < 100; i++ {
		c.put(testEntry(fmt.Sprintf("key-%d", i), 400))
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if s.bytes > 1000 && s.lru.Len() > 1 {
			t.Errorf("shard %d holds %d bytes in %d entries", i, s.bytes, s.lru.Len())
		}
		s.mu.Unlock()
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Capacity 1 per shard; two keys in the same shard: touching the first
	// then inserting the second evicts the first (it is the LRU victim), and
	// the second survives.
	c := newTranslationCache(cacheShards, 1<<20)
	a := testKey("a")
	shard, _ := c.locate(&a)
	var same []string
	for i := 0; len(same) < 2; i++ {
		k := fmt.Sprintf("k%d", i)
		if key := testKey(k); shard == func() *cacheShard { s, _ := c.locate(&key); return s }() {
			same = append(same, k)
		}
	}
	c.put(testEntry(same[0], 10))
	c.put(testEntry(same[1], 10))
	if c.get(testKey(same[0])) != nil {
		t.Fatal("LRU victim survived")
	}
	if c.get(testKey(same[1])) == nil {
		t.Fatal("fresh entry evicted")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := newTranslationCache(256, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%64)
				if e := c.get(testKey(k)); e == nil {
					c.put(testEntry(k, 50))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() == 0 || c.len() > 64 {
		t.Fatalf("len = %d", c.len())
	}
}
