package api_test

// The evaluate reader against encoding/json. The fuzz targets' seed
// corpora under testdata/fuzz hold encoding/json's quirks, one file each;
// `go test` runs them as plain tests.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"mipp/api"
	"mipp/arch"
)

// fullAnswer is an evaluate answer with every field set, each number
// distinct, as a replica encodes it.
func fullAnswer(t testing.TB) []byte {
	t.Helper()
	next := 0.0
	num := func() float64 { next += 1.25; return next }
	result := func(w, c string) *api.Result {
		return &api.Result{
			Workload: w, Config: c, FrequencyGHz: num(),
			Cycles: num(), Uops: num(), Instructions: num(), CPI: num(), TimeSeconds: num() * 1e-9,
			CPIStack: api.CPIStack{Base: num(), Branch: num(), ICache: num(), LLCHit: num(), DRAM: num()},
			Power:    api.PowerStack{Static: num(), Core: num(), FU: num(), Cache: num(), DRAM: num(), BPred: num()},
			Watts:    num(), EnergyJoules: -num(), EDP: num() * 1e-300, ED2P: num() * 1e300,
			Deff: num(), MLP: num(), BranchMissRate: num(),
			MicroCPI: []float64{num(), 0, math.Copysign(0, -1)},
		}
	}
	resp := api.BatchResponse{SchemaVersion: api.SchemaVersion, Items: []api.BatchItem{
		{Workload: "mcf", Config: "design-0", Result: result("mcf", "design-0")},
		{Workload: "mcf", Config: "bad", Error: "mipp: Predict: config bad: non-positive clock"},
		{Workload: "gcc\u00e9\U0001F600", Config: "a\"b\\c\n", Result: result("gcc", "<&>\u2028")},
	}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameFloatBits reports whether a and b, already deep-equal, also agree on
// the bits of every float: DeepEqual compares floats with ==, so 0 equals
// -0.
func sameFloatBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		return a.IsNil() || sameFloatBits(a.Elem(), b.Elem())
	case reflect.Slice:
		for i := range a.Len() {
			if !sameFloatBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameFloatBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
	}
	return true
}

// checkDecode compares decode, one of the reader's entry points, with
// json.Unmarshal on data.
func checkDecode[T any](t *testing.T, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	gotErr := decode(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("reader error %v, json.Unmarshal error %v, on %.300q", gotErr, wantErr, data)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || !sameFloatBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("values differ on %.300q:\n got  %s\n want %s", data, g, w)
	}
}

func FuzzDecodeBatchResponse(f *testing.F) {
	f.Add(fullAnswer(f))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, api.DecodeBatchResponse) })
}

// TestDecodeBatchResponseFields decodes an answer that sets every field of
// every type the reader fills to a distinct value, so a field the reader
// misses or misplaces shows.
func TestDecodeBatchResponseFields(t *testing.T) {
	data := fullAnswer(t)
	checkDecode(t, data, api.DecodeBatchResponse)
	var got api.BatchResponse
	if err := api.DecodeBatchResponse(data, &got); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSuffix(data, []byte("\n")); !bytes.Equal(again, want) {
		t.Errorf("decode then encode:\n got  %s\n want %s", again, want)
	}
}

func FuzzBatchItems(f *testing.F) {
	f.Add(fullAnswer(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := api.BatchItems(data)
		want, wantErr := batchItems(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("BatchItems error %v, reference error %v, on %.300q", gotErr, wantErr, data)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("BatchItems returned %.200q, reference %.200q, on %.300q", got, want, data)
		}
	})
}

// FuzzDecodeRequest fuzzes the strict request decoder the server and the
// router share. An accepted request must survive json.Marshal and
// DecodeRequest again as a deep-equal value.
func FuzzDecodeRequest(f *testing.F) {
	ref := arch.Reference()
	inline, err := json.Marshal(api.BatchRequest{
		SchemaVersion: api.SchemaVersion,
		Workloads:     []string{"mcf", "gcc"},
		Configs:       []api.ConfigSpec{{Name: "reference"}, {Config: ref}},
		Space:         &api.SpaceSpec{Kind: "parametric", Space: arch.TableSpace()},
		Workers:       2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline)
	f.Fuzz(func(t *testing.T, data []byte) {
		var first api.BatchRequest
		if api.DecodeRequest(bytes.NewReader(data), &first) != nil {
			return
		}
		enc, err := json.Marshal(&first)
		if err != nil {
			t.Fatalf("marshal the accepted request %.300q: %v", data, err)
		}
		var second api.BatchRequest
		if err := api.DecodeRequest(bytes.NewReader(enc), &second); err != nil {
			t.Fatalf("decode %s, the re-encoded %.300q: %v", enc, data, err)
		}
		dropEmptyOmitted(reflect.ValueOf(&first).Elem())
		if !reflect.DeepEqual(first, second) || !sameFloatBits(reflect.ValueOf(first), reflect.ValueOf(second)) {
			t.Fatalf("%.300q decodes to %+v, re-encoded as %s to %+v", data, first, enc, second)
		}
	})
}

// dropEmptyOmitted sets every empty slice in an omitempty field of v to
// nil: encoding omits it, so it decodes back as nil, the one difference a
// round trip through encoding/json makes.
func dropEmptyOmitted(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			dropEmptyOmitted(v.Elem())
		}
	case reflect.Slice:
		for i := range v.Len() {
			dropEmptyOmitted(v.Index(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			dropEmptyOmitted(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Field(i)
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if f.Kind() == reflect.Slice && f.Len() == 0 && strings.Contains(v.Type().Field(i).Tag.Get("json"), ",omitempty") {
				f.SetZero()
				continue
			}
			dropEmptyOmitted(f)
		}
	}
}
