package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// This file holds the one writer of /v1/evaluate answers. Its contract is
// encoding/json's bytes: AppendBatchResponse appends exactly what
// json.NewEncoder(w).Encode writes for the same value, or fails with the
// same error. That takes encoding/json's choices along:
//   - fields in declaration order, omitempty fields left out when empty,
//     and a nil Items slice as null;
//   - floats formatted as ES6 numbers: 'f' notation, but 'e' below 1e-6
//     and from 1e21, with a two-digit negative exponent cut to one digit
//     (1e-07 is written 1e-7);
//   - strings HTML-escaped: <, > and & as \u003c, \u003e and \u0026,
//     U+2028 and U+2029 as \u2028 and \u2029, the short escapes for \b,
//     \f, \n, \r and \t, other control bytes as \u00XX, and each byte of
//     invalid UTF-8 as \ufffd;
//   - a NaN or infinite float is an *json.UnsupportedValueError;
//   - a newline after the value.
//
// FuzzAppendBatchResponse checks the contract against encoding/json.

// AppendBatchResponse appends the JSON encoding of r to dst, followed by a
// newline, as json.NewEncoder(w).Encode(r) writes it. On a non-finite float
// it returns the error encoding/json returns, and dst holds part of the
// answer.
func AppendBatchResponse(dst []byte, r *BatchResponse) ([]byte, error) {
	if r == nil {
		return append(dst, "null\n"...), nil
	}
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(r.SchemaVersion), 10)
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
	dst = append(dst, `{"workload":`...)
	dst = appendString(dst, it.Workload)
	if it.Config != "" {
		dst = append(dst, `,"config":`...)
		dst = appendString(dst, it.Config)
	}
	if it.Result != nil {
		dst = append(dst, `,"result":`...)
		var err error
		if dst, err = appendResult(dst, it.Result); err != nil {
			return dst, err
		}
	}
	if it.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, it.Error)
	}
	return append(dst, '}'), nil
}

func appendResult(dst []byte, r *Result) ([]byte, error) {
	var err error
	num := func(key string, f float64) {
		dst = append(dst, key...)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			if err == nil {
				err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
			return
		}
		dst = appendFloat(dst, f)
	}
	dst = append(dst, `{"workload":`...)
	dst = appendString(dst, r.Workload)
	dst = append(dst, `,"config":`...)
	dst = appendString(dst, r.Config)
	num(`,"frequency_ghz":`, r.FrequencyGHz)
	num(`,"cycles":`, r.Cycles)
	num(`,"uops":`, r.Uops)
	num(`,"instructions":`, r.Instructions)
	num(`,"cpi":`, r.CPI)
	num(`,"time_seconds":`, r.TimeSeconds)
	num(`,"cpi_stack":{"base":`, r.CPIStack.Base)
	num(`,"branch":`, r.CPIStack.Branch)
	num(`,"icache":`, r.CPIStack.ICache)
	num(`,"llc":`, r.CPIStack.LLCHit)
	num(`,"dram":`, r.CPIStack.DRAM)
	num(`},"power":{"static":`, r.Power.Static)
	num(`,"core":`, r.Power.Core)
	num(`,"fu":`, r.Power.FU)
	num(`,"cache":`, r.Power.Cache)
	num(`,"dram":`, r.Power.DRAM)
	num(`,"bpred":`, r.Power.BPred)
	num(`},"watts":`, r.Watts)
	num(`,"energy_joules":`, r.EnergyJoules)
	num(`,"edp":`, r.EDP)
	num(`,"ed2p":`, r.ED2P)
	num(`,"deff":`, r.Deff)
	num(`,"mlp":`, r.MLP)
	num(`,"branch_miss_rate":`, r.BranchMissRate)
	if len(r.MicroCPI) > 0 {
		num(`,"micro_cpi":[`, r.MicroCPI[0])
		for _, f := range r.MicroCPI[1:] {
			num(",", f)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), err
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
