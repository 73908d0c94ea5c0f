package cache

// StackSim computes exact LRU stack distances (the number of unique cache
// lines touched between two accesses to the same line, Figure 4.1) using the
// classic timestamp + Fenwick-tree algorithm in O(log n) per access.
//
// It provides the ground truth against which the StatStack statistical
// conversion from reuse distances is validated, and directly yields miss
// counts for fully-associative LRU caches of arbitrary size: an access
// misses in a cache of C lines iff its stack distance is >= C (cold accesses
// have an infinite stack distance).
type StackSim struct {
	lastTime map[uint64]int // line -> timestamp of most recent access
	bit      []int          // Fenwick tree over timestamps
	mark     []bool         // mark[t] = access at t is the most recent of its line
	time     int
}

// ColdDistance is the stack distance reported for a first-touch access.
const ColdDistance = int(^uint(0) >> 1) // max int

// NewStackSim returns an empty exact stack-distance simulator.
func NewStackSim() *StackSim {
	return &StackSim{
		lastTime: make(map[uint64]int),
		bit:      make([]int, 16),
		mark:     make([]bool, 16),
	}
}

func (s *StackSim) bitAdd(i, v int) {
	for ; i < len(s.bit); i += i & (-i) {
		s.bit[i] += v
	}
}

func (s *StackSim) bitSum(i int) int {
	sum := 0
	for ; i > 0; i -= i & (-i) {
		sum += s.bit[i]
	}
	return sum
}

// grow doubles the tree and rebuilds it from the mark array. A Fenwick tree
// cannot be grown by zero-extension (new internal nodes cover old ranges),
// so we rebuild; the cost amortizes to O(log n) per access.
func (s *StackSim) grow() {
	newMark := make([]bool, len(s.mark)*2)
	copy(newMark, s.mark)
	s.mark = newMark
	s.bit = make([]int, len(s.mark))
	for t := 1; t < len(s.mark); t++ {
		if s.mark[t] {
			s.bitAdd(t, 1)
		}
	}
}

// Access records a touch of line (a line-granular address) and returns its
// stack distance: the number of distinct other lines accessed since the
// previous touch of line, or ColdDistance for a first touch.
func (s *StackSim) Access(line uint64) int {
	s.time++
	if s.time >= len(s.bit) {
		s.grow()
	}
	dist := ColdDistance
	if prev, ok := s.lastTime[line]; ok {
		// Unique lines touched in (prev, now) = count of "most recent"
		// marks strictly after prev.
		dist = s.bitSum(s.time-1) - s.bitSum(prev)
		s.bitAdd(prev, -1)
		s.mark[prev] = false
	}
	s.lastTime[line] = s.time
	s.bitAdd(s.time, 1)
	s.mark[s.time] = true
	return dist
}
