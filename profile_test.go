package mipp_test

// Tests for a profile's recorded source stream: Profile.Stream rebuilds
// exactly the profiled stream and refuses every source it cannot reproduce,
// and DecodeProfile, the boundary uploaded profiles cross, keeps its error
// contract and round-trips under fuzzing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"testing"

	"mipp"
	"mipp/api"
)

// withSource returns envelope with the profile body's "source" replaced by
// src, or removed when src is empty: the shape an upload can take.
func withSource(tb testing.TB, envelope []byte, src string) []byte {
	tb.Helper()
	var env, body map[string]json.RawMessage
	if err := json.Unmarshal(envelope, &env); err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(env["profile"], &body); err != nil {
		tb.Fatal(err)
	}
	if src == "" {
		delete(body, "source")
	} else {
		body["source"] = json.RawMessage(src)
	}
	var err error
	if env["profile"], err = json.Marshal(body); err != nil {
		tb.Fatal(err)
	}
	out, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestProfileStreamReplay(t *testing.T) {
	const n, seed = 20_000, 5
	p, err := mipp.NewProfiler(mipp.WithSeed(seed)).Profile("mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mipp.GenerateWorkload("mcf", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Stream()
	if err != nil {
		t.Fatalf("Stream() of a Profiler.Profile profile: %v", err)
	}
	if got.Name != want.Name || got.Statics != want.Statics || !slices.Equal(got.Uops, want.Uops) {
		t.Fatalf("Stream() rebuilt %d uops of %q, want the profiled %d uops of %q", got.Len(), got.Name, want.Len(), want.Name)
	}
	if _, err := mipp.NewProfiler().ProfileStream(want).Stream(); !errors.Is(err, mipp.ErrNotReplayable) {
		t.Fatalf("Stream() of a ProfileStream profile: err = %v, want ErrNotReplayable", err)
	}

	envelope, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name, source string
		ok           bool
	}{
		{"recorded source", `{"generator":"mcf","uops":20000,"seed":5}`, true},
		{"no source", "", false},
		{"null source", `null`, false},
		{"zero uops", `{"generator":"mcf","uops":0,"seed":5}`, false},
		{"negative uops", `{"generator":"mcf","uops":-20000,"seed":5}`, false},
		{"uops over the cap", `{"generator":"mcf","uops":` + strconv.Itoa(api.MaxProfileUops+1) + `,"seed":5}`, false},
		{"largest int uops", `{"generator":"mcf","uops":9223372036854775807,"seed":5}`, false},
		{"unknown generator", `{"generator":"nosuch","uops":20000,"seed":5}`, false},
		{"empty generator", `{"uops":20000,"seed":5}`, false},
		{"stale length", `{"generator":"mcf","uops":10000,"seed":5}`, false},
		{"stale seed", `{"generator":"mcf","uops":20000,"seed":0}`, false},
		{"forged generator", `{"generator":"gcc","uops":20000,"seed":5}`, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := mipp.DecodeProfile(withSource(t, envelope, tc.source))
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.Stream()
			switch {
			case tc.ok && err != nil:
				t.Fatalf("Stream() = %v, want the profiled stream", err)
			case tc.ok && s.Len() != want.Len():
				t.Fatalf("Stream() rebuilt %d uops, want %d", s.Len(), want.Len())
			case !tc.ok && !errors.Is(err, mipp.ErrNotReplayable):
				t.Fatalf("Stream() err = %v, want ErrNotReplayable", err)
			}
		})
	}
}

// FuzzDecodeProfile: whatever the bytes, DecodeProfile must not panic, must
// fail only with ErrProfileCorrupt or ErrProfileVersion, and what it accepts
// must re-encode to a fixed point: decode → encode → decode → encode writes
// the same bytes twice.
func FuzzDecodeProfile(f *testing.F) {
	p, err := mipp.NewProfiler().Profile("mcf", 1000)
	if err != nil {
		f.Fatal(err)
	}
	real, err := json.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(withSource(f, real, ""))
	for _, src := range []string{
		`{"generator":"mcf","uops":-1000,"seed":0}`,
		`{"generator":"mcf","uops":9223372036854775807,"seed":0}`,
		`{"generator":"mcf","uops":1e30,"seed":0}`,
		`{"generator":"mcf","uops":"1000","seed":0}`,
		`{"generator":"nosuch","uops":1000,"seed":0}`,
		`null`,
	} {
		f.Add(withSource(f, real, src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := mipp.DecodeProfile(data)
		if err != nil {
			if !errors.Is(err, mipp.ErrProfileCorrupt) && !errors.Is(err, mipp.ErrProfileVersion) {
				t.Fatalf("DecodeProfile error %v wraps neither ErrProfileCorrupt nor ErrProfileVersion", err)
			}
			return
		}
		first, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("encode of a decoded profile: %v", err)
		}
		back, err := mipp.DecodeProfile(first)
		if err != nil {
			t.Fatalf("decode of its own encoding: %v", err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("decode/encode is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}
