package mipp

import (
	"fmt"
	"sync"

	"mipp/api"
	"mipp/obs"
)

// Event-stream bounds: a job retains up to maxRetainedSearchEvents for
// late or resuming subscribers (a long genetic run emits two events per
// generation — trace step and front change — so this covers thousands of
// generations), and each subscriber channel buffers searchEventBuffer
// events beyond its replay so the publishing search goroutine never blocks
// on a slow reader. The last slot of every channel is the terminal
// event's.
const (
	maxRetainedSearchEvents = 4096
	searchEventBuffer       = 256
)

// searchEventLog is one job's event history plus its live subscribers. The
// search goroutine is the only publisher; any number of SSE handlers
// subscribe. Publishing never blocks: a subscriber that cannot keep up has
// progress and front events dropped from its channel feed once one slot
// is left, and that slot is kept for the terminal event, so every
// subscriber receives the terminal event and its report. A subscriber sees
// a gap as a jump in Seq and re-subscribes from the last event it saw,
// which the retained log replays unless it has trimmed it.
type searchEventLog struct {
	mu     sync.Mutex
	seq    int
	events []api.SearchEvent
	subs   map[int]chan api.SearchEvent
	nextID int
	closed bool

	// subscribers and dropped, when wired (the engine points them at its
	// stream instruments when it creates the job), track the live
	// subscriber count and the events dropped on slow subscriber channels.
	// Both are shared across every job of one engine.
	subscribers *obs.Gauge
	dropped     *obs.Counter
}

// publish appends one event (stamping its Seq) and fans it out.
func (l *searchEventLog) publish(ev api.SearchEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.seq++
	ev.Seq = l.seq
	l.events = append(l.events, ev)
	if len(l.events) > maxRetainedSearchEvents {
		// Drop the oldest half in one copy instead of sliding per event.
		keep := maxRetainedSearchEvents / 2
		copy(l.events, l.events[len(l.events)-keep:])
		l.events = l.events[:keep]
	}
	// Fan-out order across independent subscriber channels is
	// unobservable: every subscriber receives the same events in the same
	// Seq order regardless of which channel is fed first. Every send
	// happens under l.mu, so a free slot stays free until this loop fills
	// it.
	for _, ch := range l.subs {
		if len(ch) < cap(ch)-1 || ev.Terminal() && len(ch) < cap(ch) {
			//mipp:allow determinism per-subscriber fan-out order does not affect any subscriber's observed event order
			ch <- ev
		} else if l.dropped != nil { // slow subscriber: drop, it resumes by Seq
			l.dropped.Inc()
		}
	}
}

// close ends the stream after the terminal event: every subscriber channel
// is closed, and future subscribers get a replay that terminates
// immediately.
func (l *searchEventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for _, ch := range l.subs {
		close(ch)
	}
	if l.subscribers != nil && len(l.subs) > 0 {
		l.subscribers.Add(-float64(len(l.subs)))
	}
	l.subs = nil
}

// subscribe returns a channel replaying every retained event with
// Seq > after, then delivering live events until the log closes. The
// returned cancel must be called when the consumer stops reading.
func (l *searchEventLog) subscribe(after int) (<-chan api.SearchEvent, func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var replay []api.SearchEvent
	for _, ev := range l.events {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	ch := make(chan api.SearchEvent, len(replay)+searchEventBuffer)
	for _, ev := range replay {
		ch <- ev
	}
	if l.closed {
		close(ch)
		return ch, func() {}
	}
	if l.subs == nil {
		l.subs = make(map[int]chan api.SearchEvent)
	}
	id := l.nextID
	l.nextID++
	l.subs[id] = ch
	if l.subscribers != nil {
		l.subscribers.Add(1)
	}
	cancel := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		// close() may have raced us and closed the channel already; then
		// subs is nil and there is nothing to remove (close already
		// released the subscriber count).
		if _, ok := l.subs[id]; ok {
			delete(l.subs, id)
			if l.subscribers != nil {
				l.subscribers.Add(-1)
			}
		}
	}
	return ch, cancel
}

// SearchEvents subscribes to a job's event stream, replaying retained
// events with Seq > after (0 = from the beginning) and then delivering
// live events until the job reaches a terminal state, at which point the
// channel is closed. Subscribing to a finished job replays and closes
// immediately. The returned cancel must be called when the consumer stops
// reading before the channel closes.
func (e *Engine) SearchEvents(id string, after int) (<-chan api.SearchEvent, func(), error) {
	job, ok := e.search.get(id)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	ch, cancel := job.events.subscribe(after)
	return ch, cancel, nil
}
