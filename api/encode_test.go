package api_test

// The evaluate writer against encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mipp/api"
)

// checkAppend compares AppendBatchResponse with json.NewEncoder(w).Encode
// on r: the same bytes, or the same unsupported value.
func checkAppend(t *testing.T, r *api.BatchResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(r)
	got, gotErr := api.AppendBatchResponse([]byte("prefix"), r)
	var g, w *json.UnsupportedValueError
	if (gotErr == nil) != (wantErr == nil) ||
		gotErr != nil && (!errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Str != w.Str) {
		t.Fatalf("AppendBatchResponse error %v, encoding/json error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("AppendBatchResponse wrote\n %.400q\nencoding/json wrote\n %.400q", got, want.Bytes())
	}
}

// decodeCorpus returns the inputs of one fuzz target's seed corpus.
func decodeCorpus(tb testing.TB, target string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no %s corpus: %v", target, err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(arg)
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(data))
	}
	return out
}

// FuzzAppendBatchResponse encodes, with AppendBatchResponse and with
// encoding/json, what json.Unmarshal decodes from the input, and an answer
// whose strings are the raw input bytes. It is seeded from the
// FuzzDecodeBatchResponse corpus.
func FuzzAppendBatchResponse(f *testing.F) {
	f.Add(fullAnswer(f))
	for _, data := range decodeCorpus(f, "FuzzDecodeBatchResponse") {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r api.BatchResponse
		if json.Unmarshal(data, &r) == nil {
			checkAppend(t, &r)
		}
		s := string(data)
		checkAppend(t, &api.BatchResponse{Items: []api.BatchItem{
			{Workload: s, Config: s[len(s)/2:], Error: s[:len(s)/2]},
			{Workload: s, Result: &api.Result{Workload: s[len(s)/3:], Config: s, MicroCPI: []float64{}}},
		}})
	})
}

// TestAppendBatchResponseEdges covers what decoded JSON cannot produce or
// rarely does: non-finite floats in every position, the float format
// boundaries, every control byte, and the nil and empty shapes.
func TestAppendBatchResponseEdges(t *testing.T) {
	checkAppend(t, nil)
	checkAppend(t, &api.BatchResponse{})
	checkAppend(t, &api.BatchResponse{Items: []api.BatchItem{}})
	var ctrl strings.Builder
	for b := 0; b < 0x80; b++ {
		ctrl.WriteByte(byte(b))
	}
	ctrl.WriteString("  \xff\xe2\x80é\U0001F600\xed\xa0\x80")
	checkAppend(t, &api.BatchResponse{Items: []api.BatchItem{{Workload: ctrl.String(), Error: ctrl.String()}}})
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-7, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1e20, 123456789.123456789, 1.0 / 3}
	checkAppend(t, &api.BatchResponse{Items: []api.BatchItem{{Result: &api.Result{MicroCPI: floats}}}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			r := &api.Result{MicroCPI: []float64{1, 2}}
			switch field {
			case 0:
				r.FrequencyGHz = bad
			case 1:
				r.CPIStack.DRAM = bad
			case 2:
				r.BranchMissRate = bad
			case 3:
				r.MicroCPI[1] = bad
			}
			checkAppend(t, &api.BatchResponse{Items: []api.BatchItem{{Workload: "w", Result: r}}})
		}
	}
}
