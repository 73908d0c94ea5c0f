package router

import (
	"container/list"
	"sync"
)

// maxJobRoutesPerReplica bounds the job routes the router keeps for each
// replica. A replica retains at most 128 finished search jobs beside at
// most 32 running ones, so 256 routes per replica outnumber every job the
// replicas can still answer for. Past the bound the oldest routes go
// first; a request for a job whose route went is routed again by
// findJob's probe.
const maxJobRoutesPerReplica = 256

// jobRoutes remembers which replica owns each search job the router has
// seen, so polls, cancels and event streams follow the submit. It holds at
// most limit routes and forgets the oldest first.
type jobRoutes struct {
	mu    sync.Mutex
	limit int
	byID  map[string]*list.Element // each holds a *jobRoute
	order list.List                // oldest first
}

type jobRoute struct {
	id    string
	owner *member
}

func newJobRoutes(limit int) *jobRoutes {
	return &jobRoutes{limit: limit, byID: make(map[string]*list.Element)}
}

// load returns the replica that owns job id, or nil.
func (t *jobRoutes) load(id string) *member {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byID[id]; ok {
		return e.Value.(*jobRoute).owner
	}
	return nil
}

// store records m as the owner of job id, as the newest route, and drops
// the oldest routes past the limit.
func (t *jobRoutes) store(id string, m *member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byID[id]; ok {
		e.Value.(*jobRoute).owner = m
		t.order.MoveToBack(e)
		return
	}
	t.byID[id] = t.order.PushBack(&jobRoute{id: id, owner: m})
	for len(t.byID) > t.limit {
		oldest := t.order.Front()
		t.order.Remove(oldest)
		delete(t.byID, oldest.Value.(*jobRoute).id)
	}
}

// delete forgets job id's route.
func (t *jobRoutes) delete(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byID[id]; ok {
		t.order.Remove(e)
		delete(t.byID, id)
	}
}

// len returns the number of routes held.
func (t *jobRoutes) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}
