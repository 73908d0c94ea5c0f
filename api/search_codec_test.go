package api_test

// The search answers' reader and writer against encoding/json: events as
// json.Marshal writes an SSE data line, job answers as json.Encoder writes
// a response body.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"mipp/api"
)

// fullReport is a search report with every field set, each number
// distinct.
func fullReport() *api.SearchReport {
	next := 0.0
	num := func() float64 { next += 1.25; return next }
	eval := func(i int, config string, violation float64) api.SearchEval {
		return api.SearchEval{Index: i, Config: config, TimeSeconds: num() * 1e-9, Watts: num(),
			EnergyJoules: num(), EDP: num() * 1e-300, ED2P: num() * 1e300, Area: num(), Fitness: -num(),
			Feasible: violation == 0, Violation: violation}
	}
	best := eval(7, "w4-rob128-<&> ", 0)
	return &api.SearchReport{
		Workload: "mcfé", Strategy: "hill", Objective: "ed2p", Seed: 1<<53 + 1,
		SpaceSize: 122880, Evaluations: 1300, Generations: 40, Feasible: 1200,
		Best:  &best,
		Front: []api.SearchEval{eval(1, "a\"b\\c\n", 0), eval(2, "b", num())},
		Trace: []api.SearchTraceStep{{Generation: 1, Evaluations: 6, BestIndex: -1}, {Generation: 2, Evaluations: 12, BestIndex: 7, BestFitness: num()}},
	}
}

// fullEvent is a search event with every field set.
func fullEvent() *api.SearchEvent {
	rep := fullReport()
	return &api.SearchEvent{SchemaVersion: api.SchemaVersion, JobID: "job-1f-3", Seq: 273, Type: api.JobDone,
		Generation: 40, Evaluations: 1300, Best: rep.Best, Front: rep.Front, Error: "none <here>", Report: rep}
}

// fullJob is a search job answer with every field set.
func fullJob() *api.SearchJobResponse {
	return &api.SearchJobResponse{SchemaVersion: api.SchemaVersion, Job: api.SearchJob{
		ID: "job-1f-3", State: api.JobDone, Workload: "gcc", Strategy: "genetic", SpaceSize: 122880,
		Evaluations: 920, Generations: 30, Error: "e ", Report: fullReport()}}
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzDecodeSearchEvent(f *testing.F) {
	f.Add(marshal(f, fullEvent()))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, api.DecodeSearchEvent) })
}

func FuzzDecodeSearchJobResponse(f *testing.F) {
	f.Add(marshal(f, fullJob()))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, api.DecodeSearchJobResponse) })
}

// TestDecodeSearchFields decodes answers that set every field of every
// search type to a distinct value and encodes them again, so a field the
// reader misses or misplaces shows.
func TestDecodeSearchFields(t *testing.T) {
	data := marshal(t, fullEvent())
	checkDecode(t, data, api.DecodeSearchEvent)
	var ev api.SearchEvent
	if err := api.DecodeSearchEvent(data, &ev); err != nil {
		t.Fatal(err)
	}
	if again := marshal(t, &ev); !bytes.Equal(again, data) {
		t.Errorf("event decode then encode:\n got  %s\n want %s", again, data)
	}
	data = marshal(t, fullJob())
	checkDecode(t, data, api.DecodeSearchJobResponse)
	var job api.SearchJobResponse
	if err := api.DecodeSearchJobResponse(data, &job); err != nil {
		t.Fatal(err)
	}
	if again := marshal(t, &job); !bytes.Equal(again, data) {
		t.Errorf("job decode then encode:\n got  %s\n want %s", again, data)
	}
}

// sameUnsupported reports whether two encode errors are the same verdict:
// both nil, or both the *json.UnsupportedValueError of the same value.
func sameUnsupported(got, want error) bool {
	var g, w *json.UnsupportedValueError
	return (got == nil) == (want == nil) &&
		(got == nil || errors.As(got, &g) && errors.As(want, &w) && g.Str == w.Str)
}

// checkAppendEvent compares AppendSearchEvent with json.Marshal on ev.
func checkAppendEvent(t *testing.T, ev *api.SearchEvent) {
	t.Helper()
	want, wantErr := json.Marshal(ev)
	got, gotErr := api.AppendSearchEvent([]byte("prefix"), ev)
	if !sameUnsupported(gotErr, wantErr) {
		t.Fatalf("AppendSearchEvent error %v, json.Marshal error %v", gotErr, wantErr)
	}
	if gotErr == nil && (!bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want)) {
		t.Fatalf("AppendSearchEvent wrote\n %.400q\njson.Marshal wrote\n %.400q", got, want)
	}
}

// checkAppendJob compares AppendSearchJobResponse with
// json.NewEncoder(w).Encode on r.
func checkAppendJob(t *testing.T, r *api.SearchJobResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(r)
	got, gotErr := api.AppendSearchJobResponse([]byte("prefix"), r)
	if !sameUnsupported(gotErr, wantErr) {
		t.Fatalf("AppendSearchJobResponse error %v, encoding/json error %v", gotErr, wantErr)
	}
	if gotErr == nil && (!bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes())) {
		t.Fatalf("AppendSearchJobResponse wrote\n %.400q\nencoding/json wrote\n %.400q", got, want.Bytes())
	}
}

// FuzzAppendSearchEvent encodes, with the search appenders and with
// encoding/json, the event and the job answer json.Unmarshal decodes from
// the input, and an event and a job answer whose strings are the raw input
// bytes. It is seeded from the search decoders' corpora.
func FuzzAppendSearchEvent(f *testing.F) {
	f.Add(marshal(f, fullEvent()))
	f.Add(marshal(f, fullJob()))
	for _, target := range []string{"FuzzDecodeSearchEvent", "FuzzDecodeSearchJobResponse"} {
		for _, data := range decodeCorpus(f, target) {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev api.SearchEvent
		if json.Unmarshal(data, &ev) == nil {
			checkAppendEvent(t, &ev)
		}
		var job api.SearchJobResponse
		if json.Unmarshal(data, &job) == nil {
			checkAppendJob(t, &job)
		}
		s := string(data)
		rep := &api.SearchReport{Workload: s[len(s)/3:], Strategy: s, Objective: s[:len(s)/2],
			Best: &api.SearchEval{Config: s}, Front: []api.SearchEval{{Config: s[len(s)/2:]}}}
		checkAppendEvent(t, &api.SearchEvent{JobID: s, Type: s[len(s)/2:], Error: s, Best: rep.Best, Report: rep})
		checkAppendJob(t, &api.SearchJobResponse{Job: api.SearchJob{ID: s, State: s[:len(s)/3], Error: s, Report: rep}})
	})
}

// TestAppendSearchEdges covers what decoded JSON cannot produce or rarely
// does: non-finite floats in every float position of the search types,
// HTML-significant runes and line separators, violation zero, negative zero
// and non-zero, nil and empty fronts and traces, seeds past 2^53, and nil
// answers.
func TestAppendSearchEdges(t *testing.T) {
	checkAppendEvent(t, nil)
	checkAppendJob(t, nil)
	checkAppendEvent(t, &api.SearchEvent{})
	checkAppendJob(t, &api.SearchJobResponse{})
	checkAppendEvent(t, fullEvent())
	checkAppendJob(t, fullJob())

	var ctrl strings.Builder
	for b := 0; b < 0x80; b++ {
		ctrl.WriteByte(byte(b))
	}
	ctrl.WriteString("<>&  \xff\xe2\x80é\U0001F600\xed\xa0\x80")
	s := ctrl.String()
	checkAppendEvent(t, &api.SearchEvent{JobID: s, Type: s, Error: s, Best: &api.SearchEval{Config: s}})
	checkAppendJob(t, &api.SearchJobResponse{Job: api.SearchJob{ID: s, State: s, Workload: s, Strategy: s, Error: s,
		Report: &api.SearchReport{Workload: s, Strategy: s, Objective: s}}})

	for _, violation := range []float64{0, math.Copysign(0, -1), 5e-324, -1e21, 1e-7} {
		checkAppendEvent(t, &api.SearchEvent{Front: []api.SearchEval{{Violation: violation}}})
	}
	for _, seed := range []int64{1<<53 + 1, math.MaxInt64, math.MinInt64, -1} {
		checkAppendJob(t, &api.SearchJobResponse{Job: api.SearchJob{Report: &api.SearchReport{Seed: seed}}})
	}
	for _, rep := range []*api.SearchReport{
		{},
		{Front: []api.SearchEval{}, Trace: []api.SearchTraceStep{}},
		{Front: []api.SearchEval{}},
		{Trace: []api.SearchTraceStep{{}}},
	} {
		checkAppendEvent(t, &api.SearchEvent{Front: rep.Front, Report: rep})
		checkAppendJob(t, &api.SearchJobResponse{Job: api.SearchJob{Report: rep}})
	}

	// A non-finite float in each float position, and two at once, where
	// encoding/json reports the first.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 11; field++ {
			ev := fullEvent()
			rep := ev.Report
			e := &rep.Front[1]
			switch field {
			case 0:
				e.TimeSeconds = bad
			case 1:
				e.Watts = bad
			case 2:
				e.EnergyJoules = bad
			case 3:
				e.EDP = bad
			case 4:
				e.ED2P = bad
			case 5:
				e.Area = bad
			case 6:
				e.Fitness = bad
			case 7:
				e.Violation = bad
			case 8:
				rep.Trace[1].BestFitness = bad
			case 9:
				b := *rep.Best
				b.Watts = bad
				ev.Best = &b
			case 10:
				rep.Trace[0].BestFitness = -bad
				rep.Best.Fitness = bad
			}
			checkAppendEvent(t, ev)
			checkAppendJob(t, &api.SearchJobResponse{Job: api.SearchJob{Report: rep}})
		}
	}
}
