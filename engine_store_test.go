package mipp_test

// Store-backed Engine tests: write-through registration, lazy loading
// after a "restart" (a fresh engine over the same directory), restart
// equivalence (byte-identical PredictResponse vs. the in-memory engine),
// transparent reload under LRU eviction, profile metadata/delete, and a
// concurrent Register/Evaluate/evict mix for the race detector.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/store"
)

func newStoreEngine(t *testing.T, dir string, maxResident int64, workloads ...string) *mipp.Engine {
	t.Helper()
	st, err := store.Open(dir, store.WithMaxResidentBytes(maxResident))
	if err != nil {
		t.Fatal(err)
	}
	e := mipp.NewEngine(mipp.WithEngineStore(st))
	for _, w := range workloads {
		if err := e.Register(w, engineProfile(t, w)); err != nil {
			t.Fatalf("Register(%s): %v", w, err)
		}
	}
	return e
}

func predictReq(workload string) *api.PredictRequest {
	return &api.PredictRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      workload,
		Config:        api.ConfigSpec{Name: "reference"},
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The acceptance property: an engine restarted over a populated store
// serves predictions with no re-registration, byte-identical both to its
// pre-restart self and to a plain in-memory engine.
func TestEngineStoreRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	e1 := newStoreEngine(t, dir, 0, "mcf", "gcc")
	before, err := e1.Predict(ctx, predictReq("mcf"))
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new engine + store instance over the same
	// directory, nothing registered through the API.
	e2 := newStoreEngine(t, dir, 0)
	if got := e2.WorkloadNames(); len(got) != 2 || got[0] != "gcc" || got[1] != "mcf" {
		t.Fatalf("restarted WorkloadNames = %v, want [gcc mcf]", got)
	}
	after, err := e2.Predict(ctx, predictReq("mcf"))
	if err != nil {
		t.Fatalf("restarted Predict: %v", err)
	}
	if marshal(t, after) != marshal(t, before) {
		t.Error("restarted engine's PredictResponse differs from pre-restart response")
	}

	// ... and identical to an engine that never saw a store.
	mem := newTestEngine(t, "mcf")
	memResp, err := mem.Predict(ctx, predictReq("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if marshal(t, after) != marshal(t, memResp) {
		t.Error("store-backed PredictResponse differs from in-memory engine's")
	}

	// Workload listings agree on the store-backed metadata too.
	wl, err := e2.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	memWl, err := mem.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if marshal(t, wl.Workloads[1]) != marshal(t, memWl.Workloads[0]) {
		t.Errorf("store-backed WorkloadInfo %s != in-memory %s",
			marshal(t, wl.Workloads[1]), marshal(t, memWl.Workloads[0]))
	}

	// Unknown names still fail with the sentinel.
	if _, err := e2.Predict(ctx, predictReq("nope")); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("Predict(unknown) = %v, want ErrUnknownWorkload", err)
	}
}

// Evicted profiles reload transparently on the next evaluation: a resident
// bound far smaller than one profile forces every profile out of memory,
// yet predictions keep flowing and stay correct.
func TestEngineStoreEvictionTransparentReload(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := newStoreEngine(t, dir, 1, "mcf", "gcc") // 1 byte: nothing stays resident

	want := make(map[string]string)
	for _, w := range []string{"mcf", "gcc"} {
		resp, err := e.Predict(ctx, predictReq(w))
		if err != nil {
			t.Fatalf("Predict(%s): %v", w, err)
		}
		want[w] = marshal(t, resp)
	}
	st := e.Stats()
	if st.Store == nil {
		t.Fatal("store-backed engine Stats().Store = nil")
	}
	if st.Store.Evictions == 0 || st.Store.ResidentBytes != 0 {
		t.Fatalf("store stats = %+v, want everything evicted", *st.Store)
	}

	// A fresh engine over the same directory has no predictor cache, so
	// every profile must come back off disk through the eviction-churned
	// store — and match byte-for-byte.
	e2 := newStoreEngine(t, dir, 1)
	for _, w := range []string{"mcf", "gcc"} {
		resp, err := e2.Predict(ctx, predictReq(w))
		if err != nil {
			t.Fatalf("re-Predict(%s): %v", w, err)
		}
		if marshal(t, resp) != want[w] {
			t.Errorf("%s: prediction changed across eviction + reload", w)
		}
	}
	if st := e2.Stats(); st.Store == nil || st.Store.Loads == 0 {
		t.Errorf("fresh engine served without disk loads: %+v", st.Store)
	}
}

func TestEngineStoreProfileInfoAndDelete(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := newStoreEngine(t, dir, 0, "mcf")

	info, err := e.ProfileInfo(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	pi := info.Profile
	if !strings.HasPrefix(pi.Digest, "sha256:") || pi.SizeBytes <= 0 || pi.Uops <= 0 || !pi.Resident {
		t.Fatalf("ProfileInfo = %+v", pi)
	}

	// The digest is the canonical content address: an in-memory engine
	// holding the same profile reports the identical digest.
	mem := newTestEngine(t, "mcf")
	memInfo, err := mem.ProfileInfo(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if memInfo.Profile.Digest != pi.Digest || memInfo.Profile.SizeBytes != pi.SizeBytes {
		t.Errorf("in-memory digest %s/%d != store digest %s/%d",
			memInfo.Profile.Digest, memInfo.Profile.SizeBytes, pi.Digest, pi.SizeBytes)
	}

	if _, err := e.ProfileInfo(ctx, "nope"); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("ProfileInfo(unknown) = %v, want ErrUnknownWorkload", err)
	}
	if _, err := e.ProfileInfo(ctx, ""); !errors.Is(err, mipp.ErrBadRequest) {
		t.Errorf("ProfileInfo(\"\") = %v, want ErrBadRequest", err)
	}

	// Delete drops the profile durably: a fresh engine over the store no
	// longer serves it.
	del, err := e.DeleteProfile(ctx, "mcf")
	if err != nil || !del.Deleted || del.Name != "mcf" {
		t.Fatalf("DeleteProfile = %+v, %v", del, err)
	}
	if _, err := e.DeleteProfile(ctx, "mcf"); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("second DeleteProfile = %v, want ErrUnknownWorkload", err)
	}
	e2 := newStoreEngine(t, dir, 0)
	if _, err := e2.Predict(ctx, predictReq("mcf")); !errors.Is(err, mipp.ErrUnknownWorkload) {
		t.Errorf("Predict after durable delete = %v, want ErrUnknownWorkload", err)
	}
}

// Parallel Register / Evaluate / Remove+re-Register with a resident bound
// tight enough to force constant eviction and reload — the store paths the
// race detector must clear.
func TestEngineStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	mcfSize := int64(len(marshal(t, engineProfile(t, "mcf"))))
	e := newStoreEngine(t, dir, mcfSize+16, "mcf", "gcc")

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch g % 3 {
				case 0:
					resp, err := e.Evaluate(ctx, &api.BatchRequest{
						SchemaVersion: api.SchemaVersion,
						Workloads:     []string{"mcf", "gcc"},
						Configs:       []api.ConfigSpec{{Name: "reference"}},
					})
					if err != nil {
						t.Errorf("Evaluate: %v", err)
						return
					}
					for _, item := range resp.Items {
						// Items may race a Remove; the only acceptable
						// failure is the unknown-workload taxonomy.
						if item.Error != "" && !strings.Contains(item.Error, "unknown workload") {
							t.Errorf("Evaluate item error: %s", item.Error)
							return
						}
					}
				case 1:
					if _, err := e.Predict(ctx, predictReq("mcf")); err != nil && !errors.Is(err, mipp.ErrUnknownWorkload) {
						t.Errorf("Predict: %v", err)
						return
					}
				default:
					e.Remove("scratch")
					if err := e.Register("scratch", engineProfile(t, "gcc")); err != nil {
						t.Errorf("Register: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	if st.Store == nil || st.Store.ResidentBytes > st.Store.MaxResidentBytes {
		t.Errorf("store stats after concurrent mix = %+v", st.Store)
	}
	resp, err := e.Predict(ctx, predictReq("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	memResp, err := newTestEngine(t, "gcc").Predict(ctx, predictReq("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if marshal(t, resp) != marshal(t, memResp) {
		t.Error("post-concurrency prediction differs from in-memory engine")
	}
}

// A store write-through failure is a server-side problem: RegisterProfile
// must not classify it as the caller's bad request (HTTP 400), while
// genuinely malformed registrations keep that taxonomy.
func TestEngineStoreIOFailureTaxonomy(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := newStoreEngine(t, dir, 0)
	data := []byte(marshal(t, engineProfile(t, "mcf")))

	// Break the store: object writes have nowhere to go.
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	_, err := e.RegisterProfile(ctx, &api.RegisterProfileRequest{
		SchemaVersion: api.SchemaVersion, Name: "mcf", Profile: data,
	})
	if err == nil {
		t.Fatal("register on broken store succeeded")
	}
	if errors.Is(err, mipp.ErrBadRequest) {
		t.Errorf("store IO failure classified as ErrBadRequest (would be HTTP 400): %v", err)
	}

	// Malformed registrations stay bad requests.
	if _, err := e.RegisterProfile(ctx, &api.RegisterProfileRequest{
		SchemaVersion: api.SchemaVersion, Profile: []byte(`{"schema_version":42}`),
	}); !errors.Is(err, mipp.ErrBadRequest) {
		t.Errorf("malformed profile = %v, want ErrBadRequest", err)
	}
}

// infoCounter counts the Info calls its store answers.
type infoCounter struct {
	mipp.ProfileStore
	infos atomic.Int64
}

func (s *infoCounter) Info(name string) (mipp.ProfileStoreInfo, bool) {
	s.infos.Add(1)
	return s.ProfileStore.Info(name)
}

// TestSubmitSearchCompiledSkipsStore: a search submit for a workload whose
// predictor has compiled is admitted without a store lookup, and a
// workload removed through the engine is refused again, by Remove or by
// DeleteProfile.
func TestSubmitSearchCompiledSkipsStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := &infoCounter{ProfileStore: st}
	e := mipp.NewEngine(mipp.WithEngineStore(cs))
	ctx := context.Background()
	submit := func(workload string) error {
		sub, err := e.SubmitSearch(ctx, &api.SearchRequest{
			SchemaVersion: api.SchemaVersion,
			Workload:      workload,
			Space:         api.SpaceSpec{Kind: "design"},
			Strategy:      api.StrategySpec{Kind: "random", Seed: 1},
			Budget:        8,
		})
		if err != nil {
			return err
		}
		final, err := mipp.WaitSearch(ctx, e, sub.Job.ID, time.Millisecond)
		if err == nil && final.Job.State != api.JobDone {
			t.Fatalf("%s: job %+v", workload, final.Job)
		}
		return err
	}
	for _, remove := range []func(string) error{
		func(name string) error { e.Remove(name); return nil },
		func(name string) error { _, err := e.DeleteProfile(ctx, name); return err },
	} {
		if err := e.Register("mcf", engineProfile(t, "mcf")); err != nil {
			t.Fatal(err)
		}
		if err := submit("mcf"); err != nil {
			t.Fatal(err)
		}
		before := cs.infos.Load()
		if before == 0 {
			t.Fatal("the first submit admitted mcf without asking the store")
		}
		if err := submit("mcf"); err != nil {
			t.Fatal(err)
		}
		if n := cs.infos.Load() - before; n != 0 {
			t.Errorf("a submit of a compiled workload made %d store Info calls, want 0", n)
		}
		if err := remove("mcf"); err != nil {
			t.Fatal(err)
		}
		if err := submit("mcf"); !errors.Is(err, mipp.ErrUnknownWorkload) {
			t.Errorf("submit after removal: %v, want ErrUnknownWorkload", err)
		}
	}
}
