package server

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ivory/internal/memo"
)

// resultCache returns the result cache of a server built with the given
// Config.CacheEntries, so these tests pin how the config sizes the cache.
func resultCache(t *testing.T, entries int) *memo.LRU[string, any] {
	t.Helper()
	s := New(Config{Workers: 1, CacheEntries: entries})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s.cache
}

func TestLRUEvictsOldest(t *testing.T) {
	c := resultCache(t, 2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes oldest
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("a lost")
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats = %d hits/%d misses, want 3/1", hits, misses)
	}
}

func TestLRUUpdateExistingKey(t *testing.T) {
	c := resultCache(t, 2)
	c.Put("a", 1)
	c.Put("a", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("value not updated: %v", v)
	}
}

// A negative Config.CacheEntries disables caching.
func TestLRUDisabled(t *testing.T) {
	c := resultCache(t, -1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	f1, leader1 := g.join("k")
	if !leader1 {
		t.Fatal("first join not leader")
	}
	f2, leader2 := g.join("k")
	if leader2 {
		t.Fatal("second join became leader")
	}
	if f1 != f2 {
		t.Fatal("joins returned distinct flights")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err := f2.wait(); err != nil || v.(int) != 42 {
			t.Errorf("waiter got (%v, %v)", v, err)
		}
	}()
	g.finish("k", f1, 42, nil)
	wg.Wait()
	if g.Coalesced() != 1 {
		t.Fatalf("Coalesced = %d, want 1", g.Coalesced())
	}
	if g.Inflight() != 0 {
		t.Fatalf("Inflight = %d after finish, want 0", g.Inflight())
	}
	// The key is free again.
	if _, leader := g.join("k"); !leader {
		t.Fatal("key not released after finish")
	}
}

func TestFlightGroupAbort(t *testing.T) {
	g := newFlightGroup()
	f, _ := g.join("k")
	g.abort("k", f, ErrBusy)
	if _, err := f.wait(); !errors.Is(err, ErrBusy) {
		t.Fatalf("aborted flight resolved with %v", err)
	}
	if g.Inflight() != 0 {
		t.Fatal("aborted flight still tracked")
	}
}
