package memo

import (
	"sync"
	"testing"
)

// square counts its calls so tests can tell a computed value from a stored
// one.
type square struct {
	mu    sync.Mutex
	calls map[int]int
}

func (s *square) compute(k int) int {
	s.mu.Lock()
	s.calls[k]++
	s.mu.Unlock()
	return k * k
}

func newSquare(limit int) (*square, *Table[int, int]) {
	s := &square{calls: make(map[int]int)}
	return s, New(limit, s.compute)
}

// TestTablePastBoundComputesEveryCall pins the bound: once the table is
// full, a new key is computed on every Get and never stored, and every
// call still returns the computed value. Keys stored before the bound keep
// hitting.
func TestTablePastBoundComputesEveryCall(t *testing.T) {
	s, tab := newSquare(2)
	for k := 1; k <= 2; k++ {
		tab.Get(k)
	}
	for rep := 0; rep < 3; rep++ {
		if got := tab.Get(7); got != 49 {
			t.Fatalf("Get(7) = %d past the bound, want 49", got)
		}
		if got := tab.Get(1); got != 1 {
			t.Fatalf("Get(1) = %d, want 1", got)
		}
	}
	if s.calls[7] != 3 {
		t.Errorf("key past the bound computed %d times over 3 Gets, want 3", s.calls[7])
	}
	if s.calls[1] != 1 {
		t.Errorf("stored key computed %d times, want 1", s.calls[1])
	}
	if n := len(tab.m); n != 2 {
		t.Errorf("table holds %d entries, want its bound 2", n)
	}
}

// TestTableComputesExact pins the counter on one goroutine: it counts
// computes, one per distinct key below the bound and one per call past it,
// and no hits.
func TestTableComputesExact(t *testing.T) {
	_, tab := newSquare(3)
	for _, k := range []int{1, 2, 1, 3, 2, 1} {
		tab.Get(k)
	}
	if got := tab.Computes(); got != 3 {
		t.Fatalf("Computes() = %d after 3 distinct keys, want 3", got)
	}
	tab.Get(4)
	tab.Get(4)
	if got := tab.Computes(); got != 5 {
		t.Fatalf("Computes() = %d after two Gets past the bound, want 5", got)
	}
}

// TestTableConcurrentGet runs overlapping keys from several goroutines
// (under -race in CI): every Get returns the computed value, and no key is
// computed more often than it was requested.
func TestTableConcurrentGet(t *testing.T) {
	const workers, keys, reps = 8, 64, 20
	s, tab := newSquare(keys / 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				for i := 0; i < keys; i++ {
					k := (i + w*7) % keys
					if got := tab.Get(k); got != k*k {
						t.Errorf("Get(%d) = %d, want %d", k, got, k*k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int
	for k, n := range s.calls {
		if n > workers*reps {
			t.Errorf("key %d computed %d times, more than its %d requests", k, n, workers*reps)
		}
		total += n
	}
	if got := tab.Computes(); got != uint64(total) {
		t.Errorf("Computes() = %d, want the %d compute calls made", got, total)
	}
}
