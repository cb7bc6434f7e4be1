package memo

import (
	"fmt"
	"sync"
	"testing"
)

// TestLRUOrderAndCounts: a Get refreshes its key, so the least recently
// used one is evicted; every lookup counts as one hit or one miss.
func TestLRUOrderAndCounts(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes oldest
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a lost")
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if h, m := c.Stats(); h != 3 || m != 1 {
		t.Fatalf("stats = %d hits/%d misses, want 3/1", h, m)
	}
	// A disabled cache stores nothing and counts every lookup as a miss.
	d := New[int, int](0)
	d.Put(1, 10)
	if _, ok := d.Get(1); ok {
		t.Fatal("disabled cache stored a value")
	}
	if h, m := d.Stats(); h != 0 || m != 1 || d.Len() != 0 {
		t.Fatalf("disabled cache: %d hits/%d misses/%d entries, want 0/1/0", h, m, d.Len())
	}
}

// TestDuplicateKeyHoldsOneEntry hammers one key from many goroutines, as
// concurrent first-sight misses of a memo do: it must occupy one entry,
// holding the last value stored.
func TestDuplicateKeyHoldsOneEntry(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c.Put("k", g)
		}(g)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("one key holds %d entries", c.Len())
	}
	c.Put("k", -1)
	if v, _ := c.Get("k"); v != -1 || c.Len() != 1 {
		t.Fatalf("update: got %d with %d entries, want -1 with 1", v, c.Len())
	}
}

// TestBoundUnderConcurrentFlood floods the cache with unique keys from
// many goroutines (run under -race): the resident count never exceeds the
// capacity, and a key stored after the flood is still cached.
func TestBoundUnderConcurrentFlood(t *testing.T) {
	const capacity, workers, perWorker = 64, 16, 96
	c := New[string, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				key := fmt.Sprintf("%d-%d", w, k)
				if _, ok := c.Get(key); !ok {
					c.Put(key, k)
				}
				if n := c.Len(); n > capacity {
					t.Errorf("cache holds %d entries, over the %d cap", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n != capacity {
		t.Fatalf("after the flood the cache holds %d entries, want %d", n, capacity)
	}
	c.Put("late", 1)
	if _, ok := c.Get("late"); !ok {
		t.Fatal("a full cache stopped storing new keys")
	}
}
