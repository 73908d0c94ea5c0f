package mipp_test

// Search event-stream tests at the engine layer: a job's retained events
// replay to late subscribers, sequence numbers resume without loss or
// duplication, the terminal event carries the same report the job API
// serves, even to a subscriber that lagged, and unknown jobs fail with the
// sentinel.

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"mipp"
	"mipp/api"
)

// drainEvents collects a subscription until the engine closes it.
func drainEvents(t *testing.T, ch <-chan api.SearchEvent) []api.SearchEvent {
	t.Helper()
	var events []api.SearchEvent
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return events
			}
			events = append(events, ev)
		case <-timeout:
			t.Fatalf("event stream did not close; %d events so far", len(events))
		}
	}
}

func TestSearchEventsLifecycle(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	sub, err := e.SubmitSearch(ctx, searchRequest(api.StrategySpec{Kind: "genetic", Seed: 11, Population: 16, Generations: 6}))
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID

	// Subscribe immediately: replay-from-zero plus live events.
	ch, cancel, err := e.SearchEvents(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	events := drainEvents(t, ch)

	if len(events) < 3 {
		t.Fatalf("only %d events for a multi-generation run", len(events))
	}
	progress, fronts := 0, 0
	for i, ev := range events {
		if ev.JobID != id || ev.SchemaVersion != api.SchemaVersion {
			t.Fatalf("event %d = %+v: wrong job or version", i, ev)
		}
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d, want %d (gapless from 1)", i, ev.Seq, i+1)
		}
		switch ev.Type {
		case api.SearchEventProgress:
			progress++
		case api.SearchEventFront:
			fronts++
		}
		if ev.Terminal() != (i == len(events)-1) {
			t.Fatalf("event %d (%s) terminal at the wrong position", i, ev.Type)
		}
	}
	if progress < 2 {
		t.Errorf("%d progress events, want >= 2 (one per generation)", progress)
	}
	if fronts < 1 {
		t.Errorf("%d front events, want >= 1", fronts)
	}

	terminal := events[len(events)-1]
	if terminal.Type != api.JobDone || terminal.Report == nil {
		t.Fatalf("terminal event = %+v, want done with a report", terminal)
	}
	// The terminal report is the job API's report, byte for byte.
	final, err := e.SearchJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(terminal.Report)
	want, _ := json.Marshal(final.Job.Report)
	if string(got) != string(want) {
		t.Errorf("terminal report differs from the polled report:\n%.300s\n%.300s", got, want)
	}

	// A subscriber arriving after completion replays everything and the
	// stream closes immediately.
	ch2, cancel2, err := e.SearchEvents(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	replay := drainEvents(t, ch2)
	a, _ := json.Marshal(events)
	b, _ := json.Marshal(replay)
	if string(a) != string(b) {
		t.Error("late subscriber's replay differs from the live stream")
	}

	// Resuming after a seq delivers exactly the rest.
	after := events[1].Seq
	ch3, cancel3, err := e.SearchEvents(id, after)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel3()
	rest := drainEvents(t, ch3)
	if len(rest) != len(events)-2 {
		t.Fatalf("resume after seq %d delivered %d events, want %d", after, len(rest), len(events)-2)
	}
	if len(rest) > 0 && rest[0].Seq != after+1 {
		t.Errorf("resume starts at seq %d, want %d", rest[0].Seq, after+1)
	}
}

func TestSearchEventsUnknownJob(t *testing.T) {
	e := searchEngine(t)
	if _, _, err := e.SearchEvents("job-nope-1", 0); !errors.Is(err, mipp.ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestSearchJobIDsUnique(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		sub, err := e.SubmitSearch(ctx, searchRequest(api.StrategySpec{Kind: "random", Seed: int64(i + 1), Samples: 10}))
		if err != nil {
			t.Fatal(err)
		}
		if seen[sub.Job.ID] {
			t.Fatalf("duplicate job id %s", sub.Job.ID)
		}
		seen[sub.Job.ID] = true
		if _, err := mipp.WaitSearch(ctx, e, sub.Job.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Two engines must not collide either: ids embed a per-engine token.
	other := searchEngine(t)
	sub, err := other.SubmitSearch(ctx, searchRequest(api.StrategySpec{Kind: "random", Seed: 9, Samples: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if seen[sub.Job.ID] {
		t.Errorf("job id %s collides across engines", sub.Job.ID)
	}
	if _, err := mipp.WaitSearch(ctx, other, sub.Job.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// gatedStore serves one profile and holds every load of it until gate
// closes, so a search job on it publishes nothing before the test lets it.
type gatedStore struct {
	name string
	p    *mipp.Profile
	gate <-chan struct{}
}

func (s *gatedStore) Put(string, *mipp.Profile) (mipp.ProfileStoreInfo, error) {
	return mipp.ProfileStoreInfo{}, errors.New("gatedStore is read-only")
}

func (s *gatedStore) Get(name string) (*mipp.Profile, bool, error) {
	if name != s.name {
		return nil, false, nil
	}
	<-s.gate
	return s.p, true, nil
}

func (s *gatedStore) Delete(string) (bool, error) { return false, nil }

func (s *gatedStore) Info(name string) (mipp.ProfileStoreInfo, bool) {
	return mipp.ProfileStoreInfo{Name: name}, name == s.name
}

func (s *gatedStore) Names() []string        { return []string{s.name} }
func (s *gatedStore) Stats() mipp.StoreStats { return mipp.StoreStats{} }

// TestSearchEventsLaggingSubscriberGetsTerminal subscribes to a job before
// it publishes and reads only after it has ended, by which time the job
// has published more events than the subscriber channel buffers. The
// channel keeps its last slot for the terminal event: the subscriber gets
// the first 255 events and then the terminal one with the report, where it
// used to get 256 progress events and neither.
func TestSearchEventsLaggingSubscriberGetsTerminal(t *testing.T) {
	p, err := mipp.NewProfiler().Profile("mcf", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(chan struct{})
	load := sync.OnceFunc(func() { close(loaded) })
	defer load()
	e := mipp.NewEngine(mipp.WithEngineStore(&gatedStore{name: "mcf", p: p, gate: loaded}))
	defer e.Close()
	ctx := context.Background()
	req := searchRequest(api.StrategySpec{Kind: "genetic", Seed: 11, Population: 4, Generations: 400})
	req.CapWatts, req.Budget = nil, 0
	sub, err := e.SubmitSearch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := e.SearchEvents(sub.Job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	load()
	final, err := mipp.WaitSearch(ctx, e, sub.Job.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	events := drainEvents(t, ch)

	if len(events) != 256 {
		t.Fatalf("the lagging subscriber got %d events, want its channel's 256", len(events))
	}
	for i, ev := range events[:255] {
		if ev.Seq != i+1 || ev.Terminal() {
			t.Fatalf("event %d is %s seq %d, want the job's event %d", i, ev.Type, ev.Seq, i+1)
		}
	}
	terminal := events[255]
	if terminal.Type != api.JobDone || terminal.Report == nil || terminal.Seq <= 256 {
		t.Fatalf("last event is %s seq %d (report %v), want the terminal done event past seq 256",
			terminal.Type, terminal.Seq, terminal.Report != nil)
	}
	got, _ := json.Marshal(terminal.Report)
	want, _ := json.Marshal(final.Job.Report)
	if string(got) != string(want) {
		t.Errorf("terminal report differs from the polled report:\n%.300s\n%.300s", got, want)
	}
}
