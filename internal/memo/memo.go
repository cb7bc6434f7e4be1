// Package memo holds the one bounded cache policy in the tree: a
// fixed-capacity least-recently-used map with lifetime hit/miss counters.
// It backs ivoryd's result cache, the topology analysis memo and the pds
// trace memo, so every long-lived cache in the process stays bounded the
// same way and keeps caching the keys it currently sees once it is full.
package memo

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache, safe for concurrent
// use. Values are shared with every reader once stored, so callers store
// values they treat as immutable.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element

	hits, misses int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding up to capacity entries; capacity <= 0
// disables caching (every Get misses, Put is a no-op).
func New[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value stored under key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing any
// value already there, and evicts the least recently used entry when the
// cache is over capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Len reports the number of resident entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit/miss counters. They only grow; callers
// wanting per-run telemetry snapshot before and diff after.
func (c *LRU[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
