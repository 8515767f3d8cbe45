package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// cacheFileVersion guards the persisted cache format; a mismatch makes
// LoadFile start empty rather than serve results computed by an
// incompatible build. Version 2 switched from an unordered map to a
// recency-ordered entry list so that warm starts restore the LRU order.
const cacheFileVersion = 2

// Cache is the content-addressed result cache: payload bytes keyed by
// the SHA-256 of everything that determines them (benchmark sources,
// mode, canonical machine configuration, simulation options — see
// key.go). Because simulations are deterministic, a hit returns a
// byte-identical payload to the run it replaces, in O(1).
//
// The cache is bounded: when maxEntries or maxBytes is exceeded the
// least-recently-used entries are evicted (a long-lived daemon must not
// grow without limit). Zero or negative limits mean unbounded.
type Cache struct {
	mu         sync.Mutex
	entries    map[string]*list.Element
	ll         *list.List // front = most recently used
	maxEntries int
	maxBytes   int64
	curBytes   int64
	hits       int64
	misses     int64
	evictions  int64
}

// cacheEntry is one resident payload; list elements carry it so eviction
// from the list tail can also delete the map key.
type cacheEntry struct {
	key     string
	payload []byte
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache { return NewBoundedCache(0, 0) }

// NewBoundedCache returns an empty cache that evicts least-recently-used
// entries beyond maxEntries entries or maxBytes payload bytes (zero or
// negative: unbounded in that dimension).
func NewBoundedCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		entries:    map[string]*list.Element{},
		ll:         list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// Get returns the payload for key, counting a hit or a miss. A hit
// refreshes the entry's recency.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// Peek is Get without touching the hit/miss counters or the recency
// order (used when a lookup is speculative and should not skew either).
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).payload, true
}

// Put stores payload under key as the most recently used entry, evicting
// from the LRU end while over either bound. The caller must not mutate
// payload after handing it over.
func (c *Cache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.curBytes += int64(len(payload)) - int64(len(ent.payload))
		ent.payload = payload
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
		c.curBytes += int64(len(payload))
	}
	c.evictLocked()
}

// evictLocked drops LRU entries until both bounds hold again. The most
// recent entry is never evicted, so a single oversized payload still
// caches (and evicts everything else).
func (c *Cache) evictLocked() {
	for c.ll.Len() > 1 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.curBytes > c.maxBytes)) {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, ent.key)
		c.curBytes -= int64(len(ent.payload))
		c.evictions++
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident payload bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// Stats returns the lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns the lifetime evicted-entry count.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// cacheFile is the on-disk representation: entries most-recently-used
// first, so that loading under a tighter bound keeps the hottest ones
// and a warm start restores the recency order. []byte values JSON-encode
// as base64, keeping the file self-contained.
type cacheFile struct {
	Version int             `json:"version"`
	Entries []cacheFileItem `json:"entries"`
}

type cacheFileItem struct {
	Key     string `json:"key"`
	Payload []byte `json:"payload"`
}

// SaveFile persists the entries to path atomically (write to a temp file
// in the same directory, then rename), most recently used first.
func (c *Cache) SaveFile(path string) error {
	c.mu.Lock()
	doc := cacheFile{Version: cacheFileVersion, Entries: make([]cacheFileItem, 0, c.ll.Len())}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		doc.Entries = append(doc.Entries, cacheFileItem{Key: ent.key, Payload: ent.payload})
	}
	c.mu.Unlock()

	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("service: encoding cache: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".pcserved-cache-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile restores entries from path, preserving the persisted recency
// order and honoring the cache's bounds (the most recent entries win). A
// missing file or a version mismatch leaves the cache empty and returns
// nil: a cold cache is a correct cache.
func (c *Cache) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	// Check the version before decoding the entries: older formats lay
	// them out differently (v1 used a map), and an incompatible file
	// should mean "start cold", not an error.
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("service: parsing cache %s: %w", path, err)
	}
	if probe.Version != cacheFileVersion {
		return nil
	}
	var doc cacheFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("service: parsing cache %s: %w", path, err)
	}
	// Insert least recent first so Put's front-insertion rebuilds the
	// original order and bound-eviction drops the coldest entries.
	for i := len(doc.Entries) - 1; i >= 0; i-- {
		c.Put(doc.Entries[i].Key, doc.Entries[i].Payload)
	}
	// Loading is not churn: reset the eviction counter so the metric
	// reports only evictions caused by live traffic.
	c.mu.Lock()
	c.evictions = 0
	c.mu.Unlock()
	return nil
}
