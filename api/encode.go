package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// This file holds the one writer of /v1/evaluate answers and of search
// answers. Its contract is encoding/json's bytes: AppendBatchResponse and
// AppendSearchJobResponse append exactly what json.NewEncoder(w).Encode
// writes for the same value, and AppendSearchEvent what json.Marshal
// returns, or each fails with the same error. That takes encoding/json's
// choices along:
//   - fields in declaration order, omitempty fields left out when empty,
//     and a nil slice that is not omitempty (Items, a report's front and
//     trace) as null;
//   - floats formatted as ES6 numbers: 'f' notation, but 'e' below 1e-6
//     and from 1e21, with a two-digit negative exponent cut to one digit
//     (1e-07 is written 1e-7);
//   - strings HTML-escaped: <, > and & as \u003c, \u003e and \u0026,
//     U+2028 and U+2029 as \u2028 and \u2029, the short escapes for \b,
//     \f, \n, \r and \t, other control bytes as \u00XX, and each byte of
//     invalid UTF-8 as \ufffd;
//   - a NaN or infinite float is an *json.UnsupportedValueError;
//   - a newline after the value, as json.Encoder writes it, except for
//     an event, whose encoding is an SSE data line.
//
// FuzzAppendBatchResponse and FuzzAppendSearchEvent check the contract
// against encoding/json.

// AppendBatchResponse appends the JSON encoding of r to dst, followed by a
// newline, as json.NewEncoder(w).Encode(r) writes it. On a non-finite float
// it returns the error encoding/json returns, and dst holds part of the
// answer.
func AppendBatchResponse(dst []byte, r *BatchResponse) ([]byte, error) {
	if r == nil {
		return append(dst, "null\n"...), nil
	}
	dst = appendIntField(dst, `{"schema_version":`, int64(r.SchemaVersion))
	dst = append(dst, `,"items":`...)
	if r.Items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendBatchItem(dst, &r.Items[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

func appendBatchItem(dst []byte, it *BatchItem) ([]byte, error) {
	dst = appendStringField(dst, `{"workload":`, it.Workload)
	if it.Config != "" {
		dst = appendStringField(dst, `,"config":`, it.Config)
	}
	if it.Result != nil {
		var err error
		if dst, err = appendResult(append(dst, `,"result":`...), it.Result); err != nil {
			return dst, err
		}
	}
	if it.Error != "" {
		dst = appendStringField(dst, `,"error":`, it.Error)
	}
	return append(dst, '}'), nil
}

func appendResult(dst []byte, r *Result) ([]byte, error) {
	var err error
	dst = appendStringField(dst, `{"workload":`, r.Workload)
	dst = appendStringField(dst, `,"config":`, r.Config)
	dst = appendFloatField(dst, `,"frequency_ghz":`, r.FrequencyGHz, &err)
	dst = appendFloatField(dst, `,"cycles":`, r.Cycles, &err)
	dst = appendFloatField(dst, `,"uops":`, r.Uops, &err)
	dst = appendFloatField(dst, `,"instructions":`, r.Instructions, &err)
	dst = appendFloatField(dst, `,"cpi":`, r.CPI, &err)
	dst = appendFloatField(dst, `,"time_seconds":`, r.TimeSeconds, &err)
	dst = appendFloatField(dst, `,"cpi_stack":{"base":`, r.CPIStack.Base, &err)
	dst = appendFloatField(dst, `,"branch":`, r.CPIStack.Branch, &err)
	dst = appendFloatField(dst, `,"icache":`, r.CPIStack.ICache, &err)
	dst = appendFloatField(dst, `,"llc":`, r.CPIStack.LLCHit, &err)
	dst = appendFloatField(dst, `,"dram":`, r.CPIStack.DRAM, &err)
	dst = appendFloatField(dst, `},"power":{"static":`, r.Power.Static, &err)
	dst = appendFloatField(dst, `,"core":`, r.Power.Core, &err)
	dst = appendFloatField(dst, `,"fu":`, r.Power.FU, &err)
	dst = appendFloatField(dst, `,"cache":`, r.Power.Cache, &err)
	dst = appendFloatField(dst, `,"dram":`, r.Power.DRAM, &err)
	dst = appendFloatField(dst, `,"bpred":`, r.Power.BPred, &err)
	dst = appendFloatField(dst, `},"watts":`, r.Watts, &err)
	dst = appendFloatField(dst, `,"energy_joules":`, r.EnergyJoules, &err)
	dst = appendFloatField(dst, `,"edp":`, r.EDP, &err)
	dst = appendFloatField(dst, `,"ed2p":`, r.ED2P, &err)
	dst = appendFloatField(dst, `,"deff":`, r.Deff, &err)
	dst = appendFloatField(dst, `,"mlp":`, r.MLP, &err)
	dst = appendFloatField(dst, `,"branch_miss_rate":`, r.BranchMissRate, &err)
	if len(r.MicroCPI) > 0 {
		dst = appendFloatField(dst, `,"micro_cpi":[`, r.MicroCPI[0], &err)
		for _, f := range r.MicroCPI[1:] {
			dst = appendFloatField(dst, ",", f, &err)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), err
}

// AppendSearchEvent appends the JSON encoding of ev to dst as
// json.Marshal(ev) returns it, with no newline: the data line of the
// event's SSE message. On a non-finite float it returns the error
// encoding/json returns, and dst holds part of the event.
func AppendSearchEvent(dst []byte, ev *SearchEvent) ([]byte, error) {
	if ev == nil {
		return append(dst, "null"...), nil
	}
	var err error
	dst = appendIntField(dst, `{"schema_version":`, int64(ev.SchemaVersion))
	dst = appendStringField(dst, `,"job_id":`, ev.JobID)
	dst = appendIntField(dst, `,"seq":`, int64(ev.Seq))
	dst = appendStringField(dst, `,"type":`, ev.Type)
	if ev.Generation != 0 {
		dst = appendIntField(dst, `,"generation":`, int64(ev.Generation))
	}
	if ev.Evaluations != 0 {
		dst = appendIntField(dst, `,"evaluations":`, int64(ev.Evaluations))
	}
	if ev.Best != nil {
		dst = appendEval(append(dst, `,"best":`...), ev.Best, &err)
	}
	if len(ev.Front) > 0 {
		dst = appendEvals(append(dst, `,"front":`...), ev.Front, &err)
	}
	if ev.Error != "" {
		dst = appendStringField(dst, `,"error":`, ev.Error)
	}
	if ev.Report != nil {
		dst = appendReport(append(dst, `,"report":`...), ev.Report, &err)
	}
	return append(dst, '}'), err
}

// AppendSearchJobResponse appends the JSON encoding of r to dst, followed
// by a newline, as json.NewEncoder(w).Encode(r) writes it. On a non-finite
// float it returns the error encoding/json returns, and dst holds part of
// the answer.
func AppendSearchJobResponse(dst []byte, r *SearchJobResponse) ([]byte, error) {
	if r == nil {
		return append(dst, "null\n"...), nil
	}
	var err error
	j := &r.Job
	dst = appendIntField(dst, `{"schema_version":`, int64(r.SchemaVersion))
	dst = appendStringField(dst, `,"job":{"id":`, j.ID)
	dst = appendStringField(dst, `,"state":`, j.State)
	dst = appendStringField(dst, `,"workload":`, j.Workload)
	dst = appendStringField(dst, `,"strategy":`, j.Strategy)
	dst = appendIntField(dst, `,"space_size":`, int64(j.SpaceSize))
	dst = appendIntField(dst, `,"evaluations":`, int64(j.Evaluations))
	dst = appendIntField(dst, `,"generations":`, int64(j.Generations))
	if j.Error != "" {
		dst = appendStringField(dst, `,"error":`, j.Error)
	}
	if j.Report != nil {
		dst = appendReport(append(dst, `,"report":`...), j.Report, &err)
	}
	return append(dst, "}}\n"...), err
}

// appendReport appends a search report, the one encoding of it that the
// terminal event and the job snapshot share.
func appendReport(dst []byte, r *SearchReport, err *error) []byte {
	dst = append(dst, '{')
	if r.Workload != "" {
		dst = append(appendStringField(dst, `"workload":`, r.Workload), ',')
	}
	dst = appendStringField(dst, `"strategy":`, r.Strategy)
	dst = appendStringField(dst, `,"objective":`, r.Objective)
	dst = appendIntField(dst, `,"seed":`, r.Seed)
	dst = appendIntField(dst, `,"space_size":`, int64(r.SpaceSize))
	dst = appendIntField(dst, `,"evaluations":`, int64(r.Evaluations))
	dst = appendIntField(dst, `,"generations":`, int64(r.Generations))
	dst = appendIntField(dst, `,"feasible":`, int64(r.Feasible))
	if r.Best != nil {
		dst = appendEval(append(dst, `,"best":`...), r.Best, err)
	}
	dst = appendEvals(append(dst, `,"front":`...), r.Front, err)
	dst = append(dst, `,"trace":`...)
	if r.Trace == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range r.Trace {
		if i > 0 {
			dst = append(dst, ',')
		}
		s := &r.Trace[i]
		dst = appendIntField(dst, `{"generation":`, int64(s.Generation))
		dst = appendIntField(dst, `,"evaluations":`, int64(s.Evaluations))
		dst = appendIntField(dst, `,"best_index":`, int64(s.BestIndex))
		dst = append(appendFloatField(dst, `,"best_fitness":`, s.BestFitness, err), '}')
	}
	return append(dst, "]}"...)
}

// appendEvals appends a list of evaluated points, nil as null.
func appendEvals(dst []byte, evals []SearchEval, err *error) []byte {
	if evals == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range evals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEval(dst, &evals[i], err)
	}
	return append(dst, ']')
}

func appendEval(dst []byte, e *SearchEval, err *error) []byte {
	dst = appendIntField(dst, `{"index":`, int64(e.Index))
	dst = appendStringField(dst, `,"config":`, e.Config)
	dst = appendFloatField(dst, `,"time_seconds":`, e.TimeSeconds, err)
	dst = appendFloatField(dst, `,"watts":`, e.Watts, err)
	dst = appendFloatField(dst, `,"energy_joules":`, e.EnergyJoules, err)
	dst = appendFloatField(dst, `,"edp":`, e.EDP, err)
	dst = appendFloatField(dst, `,"ed2p":`, e.ED2P, err)
	dst = appendFloatField(dst, `,"area":`, e.Area, err)
	dst = appendFloatField(dst, `,"fitness":`, e.Fitness, err)
	dst = strconv.AppendBool(append(dst, `,"feasible":`...), e.Feasible)
	if e.Violation != 0 {
		dst = appendFloatField(dst, `,"violation":`, e.Violation, err)
	}
	return append(dst, '}')
}

// appendIntField appends key and then n.
func appendIntField(dst []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendStringField appends key and then s, quoted.
func appendStringField(dst []byte, key, s string) []byte {
	return appendString(append(dst, key...), s)
}

// appendFloatField appends key and then f as encoding/json writes it. A
// NaN or an infinity is left out and, if *err is still nil, becomes the
// *json.UnsupportedValueError encoding/json returns for it.
func appendFloatField(dst []byte, key string, f float64, err *error) []byte {
	dst = append(dst, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return dst
	}
	return appendFloat(dst, f)
}

// appendFloat formats a finite f as encoding/json does.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// 1e-07 is written 1e-7.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
