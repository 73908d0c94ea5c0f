package mipp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mipp"
	"mipp/api"
	"mipp/server"
)

// searchDigests pins, per workload and strategy, the SHA-256 of the poll
// answer of a finished fixed-seed search job (its terminal report) and of
// its whole event stream, both as the server writes them with the job ID
// blanked. The jobs are shaped as tierbench's: the wide space, ED²P, a 20 W
// cap and a budget of 5% of the space. The table was recorded before search
// generations were filled into a reused config slab.
var searchDigests = map[string]string{
	"mcf/random/report":  "a567b71d45084eb542b803ec03f526dd44344bcfac93f872615cb3343fab3291",
	"mcf/random/events":  "39f57c8eaae69c7258cf08b2aba0997a70168f472521a036627ccac5ec9fb27d",
	"mcf/hill/report":    "4d38b500c793c61ef3e34ce24b238cf3568945541570c7180d4296bac6b48b4f",
	"mcf/hill/events":    "90bed28808db33d88eb5e211ab7a8253fb904e19629291c6a9dbb6ee9a26e4cb",
	"mcf/genetic/report": "e156e8c75c25b7c33fa1dda4f81b3c23b67d76135b7e0b27ccd7d89408f1077e",
	"mcf/genetic/events": "6c0d787c6d4d78297185af3df997eeeafa5d2f649acd609829b04e8816998bb8",
	"gcc/random/report":  "5992b074bbffbcf5c15eed7e9c5b19e1946b16d1301b0a2599fcc8291ce16c1c",
	"gcc/random/events":  "9ae7eb462f556d465833c2a359ee1030bc7418a47f415f146c46c4c7a3490ff8",
	"gcc/hill/report":    "05f0f4f3493ac639bbb5cb9efc838838cd39c0da941ac7424c22f2a42d812333",
	"gcc/hill/events":    "193d8dd878fe2c38c4f94a057a0ff6e96503af5f41f87de8ca14a0eba382ca66",
	"gcc/genetic/report": "ccc82fbe64476e5476f4fde7f2cae4ef34518416c57e769a1f306bad243be325",
	"gcc/genetic/events": "b0d6f813f530094ce0105b37a2c67ba9e3f4970c1493a7bbaf262d6270c2e9b2",
}

// TestSearchDigests runs each pinned job through an engine and its server
// and compares the served bytes with the table.
func TestSearchDigests(t *testing.T) {
	e := mipp.NewEngine()
	prof := mipp.NewProfiler()
	for _, w := range []string{"mcf", "gcc"} {
		stream, err := mipp.GenerateWorkload(w, 100_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(w, prof.ProfileStream(stream)); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(e)
	get := func(path, id string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return bytes.ReplaceAll(rec.Body.Bytes(), []byte(id), []byte("job"))
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	ctx := context.Background()
	space, capW := benchWideSpace(), 20.0
	for _, w := range []string{"mcf", "gcc"} {
		for _, spec := range []api.StrategySpec{
			{Kind: "random", Seed: 2501},
			{Kind: "hill", Seed: 2502, Restarts: 12},
			{Kind: "genetic", Seed: 2503, Population: 64, Generations: 40},
		} {
			sub, err := e.SubmitSearch(ctx, &api.SearchRequest{
				SchemaVersion: api.SchemaVersion,
				Workload:      w,
				Space:         api.SpaceSpec{Kind: "parametric", Space: space},
				Strategy:      spec,
				Objective:     "ed2p",
				CapWatts:      &capW,
				Budget:        space.Size() / 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			id := sub.Job.ID
			final, err := mipp.WaitSearch(ctx, e, id, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if final.Job.State != api.JobDone {
				t.Fatalf("%s/%s: job %+v", w, spec.Kind, final.Job)
			}
			key := w + "/" + spec.Kind
			for _, c := range []struct{ key, path string }{
				{key + "/report", "/v1/search/" + id},
				{key + "/events", "/v1/search/" + id + "/events"},
			} {
				if got := digest(get(c.path, id)); got != searchDigests[c.key] {
					t.Errorf("%q: digest %s, want %s", c.key, got, searchDigests[c.key])
				}
			}
		}
	}
}
