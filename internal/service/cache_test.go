package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCacheEvictsByEntryCount(t *testing.T) {
	c := NewBoundedCache(3, 0)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want 2", c.Evictions())
	}
	for _, gone := range []string{"k0", "k1"} {
		if _, ok := c.Peek(gone); ok {
			t.Fatalf("oldest entry %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"k2", "k3", "k4"} {
		if _, ok := c.Peek(kept); !ok {
			t.Fatalf("recent entry %s was evicted", kept)
		}
	}
}

func TestCacheEvictsByBytes(t *testing.T) {
	c := NewBoundedCache(0, 10)
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	c.Put("c", make([]byte, 4)) // 12 bytes: "a" must go
	if _, ok := c.Peek("a"); ok {
		t.Fatal("LRU entry survived the byte bound")
	}
	if got := c.Bytes(); got != 8 {
		t.Fatalf("Bytes = %d, want 8", got)
	}
	// One oversized payload still caches (and evicts the rest).
	c.Put("huge", make([]byte, 64))
	if c.Len() != 1 {
		t.Fatalf("after oversized Put: Len = %d, want 1", c.Len())
	}
	if _, ok := c.Peek("huge"); !ok {
		t.Fatal("oversized entry was not cached")
	}
}

func TestCacheGetRefreshesRecency(t *testing.T) {
	c := NewBoundedCache(2, 0)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // "a" becomes MRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // must evict "b", not "a"
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b survived; Get did not refresh a's recency")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
}

func TestCachePeekDoesNotRefreshOrCount(t *testing.T) {
	c := NewBoundedCache(2, 0)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	c.Peek("a") // no recency refresh
	c.Put("c", []byte("C"))
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed recency; a should have been the LRU victim")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("Peek skewed counters: hits=%d misses=%d", hits, misses)
	}
}

func TestCacheUpdateExistingKeyAdjustsBytes(t *testing.T) {
	c := NewBoundedCache(0, 0)
	c.Put("a", make([]byte, 10))
	c.Put("a", make([]byte, 3))
	if got := c.Bytes(); got != 3 {
		t.Fatalf("Bytes after shrink = %d, want 3", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheSaveLoadMRUFirst: the persisted file lists entries most
// recently used first, so a restart under a tighter bound keeps the
// hottest entries and the restored cache evicts in the original order.
func TestCacheSaveLoadMRUFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c := NewCache()
	c.Put("cold", []byte("1"))
	c.Put("warm", []byte("2"))
	c.Put("hot", []byte("3"))
	c.Get("cold") // recency now: cold, hot, warm
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// Restore into a cache that can only hold the two hottest.
	tight := NewBoundedCache(2, 0)
	if err := tight.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := tight.Peek("warm"); ok {
		t.Fatal("coldest entry survived a bounded load")
	}
	for _, k := range []string{"cold", "hot"} {
		if _, ok := tight.Peek(k); !ok {
			t.Fatalf("hot entry %s dropped by bounded load", k)
		}
	}
	// Bound-trimming during load must not count as live-traffic churn.
	if tight.Evictions() != 0 {
		t.Fatalf("load reported %d evictions, want 0", tight.Evictions())
	}

	// An unbounded restore preserves both content and recency order.
	full := NewCache()
	if err := full.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if v, ok := full.Peek("warm"); !ok || !bytes.Equal(v, []byte("2")) {
		t.Fatalf("warm after load: %q, %v", v, ok)
	}
	// The restored recency order matches the saved one: under a new
	// 2-entry bound, "warm" (the saved LRU) is the first victim.
	full.Put("new", []byte("4"))
	if full.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (unbounded cache must not evict)", full.Len())
	}
}

// TestCacheVersionMismatchStartsEmpty: a cache file from an incompatible
// build is ignored, not trusted.
func TestCacheVersionMismatchStartsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"entries":{"k":"cGF5bG9hZA=="}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	if err := c.LoadFile(path); err != nil {
		t.Fatalf("LoadFile on version mismatch: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after version mismatch, want 0", c.Len())
	}
}

// TestServerCacheByteBound: a Server built with no byte bound caps its
// cache at DefaultCacheMaxBytes, a negative bound leaves it unbounded,
// and the persisted file loads under the server's bound, keeping the
// most recently used entries.
func TestServerCacheByteBound(t *testing.T) {
	if got := New(Options{}).cache.maxBytes; got != DefaultCacheMaxBytes {
		t.Fatalf("default byte bound %d, want %d", got, DefaultCacheMaxBytes)
	}
	unbounded := New(Options{CacheMaxBytes: -1}).cache
	for i := 0; i < 64; i++ {
		unbounded.Put(fmt.Sprint(i), make([]byte, 1<<10))
	}
	if unbounded.Len() != 64 || unbounded.Evictions() != 0 {
		t.Fatalf("unbounded cache holds %d entries after %d evictions, want 64 and 0", unbounded.Len(), unbounded.Evictions())
	}

	path := filepath.Join(t.TempDir(), "cache.json")
	c := NewCache()
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, []byte("12345678"))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	srv := New(Options{CacheFile: path, CacheMaxBytes: 16})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if srv.cache.Len() != 2 || srv.cache.Bytes() != 16 {
		t.Fatalf("loaded %d entries, %d bytes under a 16-byte bound; want 2 and 16", srv.cache.Len(), srv.cache.Bytes())
	}
	for _, k := range []string{"c", "d"} {
		if _, ok := srv.cache.Peek(k); !ok {
			t.Fatalf("recent entry %s dropped by the bounded load", k)
		}
	}
}
