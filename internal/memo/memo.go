// Package memo provides the bounded, concurrency-safe memo table behind the
// model's compile-phase caches.
package memo

import (
	"sync"
	"sync/atomic"
)

// Table memoizes a pure function of its key. The compute function receives
// the key and nothing else, so a stored value can depend only on the key:
// a hit returns exactly what a fresh computation would, and results never
// depend on which keys were looked up before, or in what order.
//
// A Table holds at most limit entries. Past the bound a new key is computed
// on every Get and never stored, which costs speed but never changes a
// result, so state fed by client-chosen keys stays bounded. Two goroutines
// that miss on one key may both compute it; the values are equal, and the
// later store wins.
//
// A Table is safe for concurrent use. compute runs without the lock held,
// so it may itself read other tables.
type Table[K comparable, V any] struct {
	compute  func(K) V
	limit    int
	mu       sync.RWMutex
	m        map[K]V
	computes atomic.Uint64
}

// New returns an empty table of at most limit entries over compute.
func New[K comparable, V any](limit int, compute func(K) V) *Table[K, V] {
	return &Table[K, V]{compute: compute, limit: limit, m: make(map[K]V)}
}

// Get returns the value for k, computing it on first use.
//
//mipp:hotpath
func (t *Table[K, V]) Get(k K) V {
	t.mu.RLock()
	v, ok := t.m[k]
	t.mu.RUnlock()
	if ok {
		return v
	}
	t.computes.Add(1)
	v = t.compute(k)
	t.mu.Lock()
	if len(t.m) < t.limit {
		t.m[k] = v
	}
	t.mu.Unlock()
	return v
}

// Computes returns how many times Get has run compute. Under concurrent
// misses on one key it is an upper bound on the distinct keys computed;
// on one goroutine it is exact.
func (t *Table[K, V]) Computes() uint64 { return t.computes.Load() }
