package api

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file holds the one reader of the answers a client reads most: the
// /v1/evaluate answers, the largest bodies on the wire, and the search
// answers, the events of GET /v1/search/{id}/events and the job snapshots
// of /v1/search. json.Unmarshal checks a document in one pass and decodes
// it by reflection in a second; the reader checks the grammar as
// encoding/json does while it decodes, so each answer is read once.
//
// Its contract is json.Unmarshal's verdict and values. Decoding into a zero
// value, it fails exactly when json.Unmarshal fails, and otherwise yields
// deep-equal values with bit-identical floats. That takes encoding/json's
// quirks along:
//   - a key names a field exactly, else case-folded ("ITEMS", "ſchema_version");
//     any other key's value is checked and skipped;
//   - a repeated key decodes again over what the first one left, so structs
//     merge and slices reuse their elements within capacity;
//   - null makes a pointer or slice nil and leaves anything else as it was;
//     an empty array makes a non-nil empty slice;
//   - invalid UTF-8 and lone surrogates in strings become U+FFFD;
//   - a number must fit its field: 1e400 overflows a float64 and 1.0 is no
//     int;
//   - nesting deeper than 10000 is an error, and so is anything but
//     whitespace after the value.
//
// FuzzDecodeBatchResponse, FuzzDecodeSearchEvent and
// FuzzDecodeSearchJobResponse check the contract against json.Unmarshal.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// DecodeBatchResponse decodes an evaluate answer into v in one pass. Into a
// zero v it returns an error exactly when json.Unmarshal does, trailing
// data included, and otherwise the values json.Unmarshal would. After an
// error v may hold part of the answer.
func DecodeBatchResponse(data []byte, v *BatchResponse) error { return decode(data, v) }

// DecodeSearchEvent decodes the data line of one search event in one
// pass, under DecodeBatchResponse's contract.
func DecodeSearchEvent(data []byte, v *SearchEvent) error { return decode(data, v) }

// DecodeSearchJobResponse decodes a submit, poll or cancel answer of
// /v1/search in one pass, under DecodeBatchResponse's contract.
func DecodeSearchJobResponse(data []byte, v *SearchJobResponse) error { return decode(data, v) }

// decode reads the one JSON value data holds into what v points at.
func decode(data []byte, v any) error {
	r := reader{data: data}
	if err := r.value(v); err != nil {
		return err
	}
	return r.end()
}

// BatchItems checks an evaluate answer as a router must before splicing
// it: one JSON value, schema_version 1, items an array. It returns the
// bytes inside the items array, whitespace trimmed, as a sub-slice of data,
// without decoding an item. As in json.Unmarshal, a repeated key's last
// value counts.
func BatchItems(data []byte) ([]byte, error) {
	var (
		version int
		items   rawValue
	)
	r := reader{data: data}
	if err := r.object(r.peek(), batchResponseFields, &version, &items); err != nil {
		return nil, err
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	if err := CheckVersion(version); err != nil {
		return nil, err
	}
	if len(items) == 0 || items[0] != '[' {
		return nil, errors.New("api: items is not an array")
	}
	return bytes.TrimSpace(items[1 : len(items)-1]), nil
}

// reader walks one JSON document.
type reader struct {
	data  []byte
	off   int    // the next byte to read
	depth int    // objects and arrays open at off
	buf   []byte // the last string value that is not its literal's bytes
}

// rawValue is a value kept as its bytes: what BatchItems reads of items.
type rawValue []byte

// value reads one value into what p points at.
func (r *reader) value(p any) error {
	c := r.peek()
	if raw, ok := p.(*rawValue); ok {
		start := r.off
		err := r.skip()
		*raw = r.data[start:r.off]
		return err
	}
	if c == 'n' {
		if err := r.literal(); err != nil {
			return err
		}
		switch p := p.(type) {
		case **Result:
			*p = nil
		case *[]BatchItem:
			*p = nil
		case *[]float64:
			*p = nil
		case **SearchEval:
			*p = nil
		case **SearchReport:
			*p = nil
		case *[]SearchEval:
			*p = nil
		case *[]SearchTraceStep:
			*p = nil
		}
		return nil
	}
	switch p := p.(type) {
	case *string:
		if c != '"' {
			return r.mismatch(reflect.TypeOf(p).Elem())
		}
		s, err := r.str()
		*p = string(s)
		return err
	case *float64:
		num, err := r.numberFor(c, p)
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return fmt.Errorf("api: number %s does not fit a float64", num)
		}
		*p = f
		return nil
	case *int:
		num, err := r.numberFor(c, p)
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(num), 10, 0)
		if err != nil {
			return fmt.Errorf("api: number %s does not fit an int", num)
		}
		*p = int(n)
		return nil
	case *int64:
		num, err := r.numberFor(c, p)
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return fmt.Errorf("api: number %s does not fit an int64", num)
		}
		*p = n
		return nil
	case *bool:
		if c != 't' && c != 'f' {
			return r.mismatch(reflect.TypeOf(p).Elem())
		}
		if err := r.literal(); err != nil {
			return err
		}
		*p = c == 't'
		return nil
	case *[]float64:
		return array(r, c, p)
	case *[]BatchItem:
		return array(r, c, p)
	case **Result:
		return pointer(r, c, p)
	case *BatchResponse:
		return r.object(c, batchResponseFields, &p.SchemaVersion, &p.Items)
	case *BatchItem:
		return r.object(c, batchItemFields, &p.Workload, &p.Config, &p.Result, &p.Error)
	case *Result:
		return r.object(c, resultFields, &p.Workload, &p.Config, &p.FrequencyGHz,
			&p.Cycles, &p.Uops, &p.Instructions, &p.CPI, &p.TimeSeconds,
			&p.CPIStack, &p.Power,
			&p.Watts, &p.EnergyJoules, &p.EDP, &p.ED2P,
			&p.Deff, &p.MLP, &p.BranchMissRate, &p.MicroCPI)
	case *CPIStack:
		return r.object(c, cpiStackFields, &p.Base, &p.Branch, &p.ICache, &p.LLCHit, &p.DRAM)
	case *PowerStack:
		return r.object(c, powerStackFields, &p.Static, &p.Core, &p.FU, &p.Cache, &p.DRAM, &p.BPred)
	case *SearchEvent:
		return r.object(c, searchEventFields, &p.SchemaVersion, &p.JobID, &p.Seq, &p.Type,
			&p.Generation, &p.Evaluations, &p.Best, &p.Front, &p.Error, &p.Report)
	case *SearchJobResponse:
		return r.object(c, searchJobResponseFields, &p.SchemaVersion, &p.Job)
	case *SearchJob:
		return r.object(c, searchJobFields, &p.ID, &p.State, &p.Workload, &p.Strategy,
			&p.SpaceSize, &p.Evaluations, &p.Generations, &p.Error, &p.Report)
	case **SearchReport:
		return pointer(r, c, p)
	case *SearchReport:
		return r.object(c, searchReportFields, &p.Workload, &p.Strategy, &p.Objective, &p.Seed,
			&p.SpaceSize, &p.Evaluations, &p.Generations, &p.Feasible, &p.Best, &p.Front, &p.Trace)
	case **SearchEval:
		return pointer(r, c, p)
	case *SearchEval:
		return r.object(c, searchEvalFields, &p.Index, &p.Config, &p.TimeSeconds, &p.Watts,
			&p.EnergyJoules, &p.EDP, &p.ED2P, &p.Area, &p.Fitness, &p.Feasible, &p.Violation)
	case *[]SearchEval:
		return array(r, c, p)
	case *[]SearchTraceStep:
		return array(r, c, p)
	case *SearchTraceStep:
		return r.object(c, searchTraceStepFields, &p.Generation, &p.Evaluations, &p.BestIndex, &p.BestFitness)
	}
	panic(fmt.Sprintf("api: the reader cannot decode into %T", p))
}

// object reads the object that starts at the next byte, c, into the
// fields ptrs point at, which fs names in the same order. A key that names
// no field has its value checked and skipped.
func (r *reader) object(c byte, fs *fields, ptrs ...any) error {
	if len(ptrs) != len(fs.names) {
		panic(fmt.Sprintf("api: the reader fills %d fields of %s, which has %d", len(ptrs), fs.typ, len(fs.names)))
	}
	if c != '{' {
		return r.mismatch(fs.typ)
	}
	if err := r.enter(); err != nil {
		return err
	}
	if r.close('}') {
		return nil
	}
	next := 0
	for {
		key, err := r.key()
		if err != nil {
			return err
		}
		if i := fs.index(key, next); i >= 0 {
			next = i + 1
			err = r.value(ptrs[i])
		} else {
			err = r.skip()
		}
		if err != nil {
			return err
		}
		if more, err := r.more('}'); !more || err != nil {
			return err
		}
	}
}

// pointer reads the object that starts at the next byte, c, into **p as
// encoding/json does: into the struct *p points at, or into a new one when
// *p is nil.
func pointer[T any](r *reader, c byte, p **T) error {
	if c != '{' {
		return r.mismatch(reflect.TypeFor[*T]())
	}
	if *p == nil {
		*p = new(T)
	}
	return r.value(*p)
}

// array reads the array that starts at the next byte, c, into *s as
// encoding/json does: elements decode over what *s already holds, the
// slice grows one element at a time and is cut to the array's length, and
// an empty array leaves a non-nil empty slice.
func array[T any](r *reader, c byte, s *[]T) error {
	if c != '[' {
		return r.mismatch(reflect.TypeFor[[]T]())
	}
	if err := r.enter(); err != nil {
		return err
	}
	v, i := *s, 0
	if !r.close(']') {
		for more := true; more; i++ {
			if i == cap(v) {
				v = append(v, *new(T))
			} else if i == len(v) {
				v = v[:i+1]
			}
			if err := r.value(&v[i]); err != nil {
				return err
			}
			var err error
			if more, err = r.more(']'); err != nil {
				return err
			}
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// skip steps over one value of any kind, checking its grammar.
func (r *reader) skip() error {
	var stack [16]byte
	closers := stack[:0] // the closing byte of each container open in the value
	for {
		// A value starts at the next byte.
		switch c := r.peek(); c {
		case '{', '[':
			if err := r.enter(); err != nil {
				return err
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if r.close(closer) {
				break
			}
			closers = append(closers, closer)
			if closer == '}' {
				if _, err := r.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := r.str(); err != nil {
				return err
			}
		case 't', 'f', 'n':
			if err := r.literal(); err != nil {
				return err
			}
		default:
			if _, err := r.number(); err != nil {
				return err
			}
		}
		// A value ended: close the containers that end with it.
		for {
			n := len(closers)
			if n == 0 {
				return nil
			}
			more, err := r.more(closers[n-1])
			if err != nil {
				return err
			}
			if more {
				if closers[n-1] == '}' {
					if _, err := r.key(); err != nil {
						return err
					}
				}
				break
			}
			closers = closers[:n-1]
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end of the
// data (where a 0 byte in the data is just as out of place).
func (r *reader) peek() byte {
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// enter steps into the object or array whose opening byte is next.
func (r *reader) enter() error {
	r.off++
	r.depth++
	if r.depth > maxDepth {
		return r.syntaxError("objects and arrays nested deeper than 10000")
	}
	return nil
}

// close steps out of the container just entered if closer comes next,
// reporting whether it did.
func (r *reader) close(closer byte) bool {
	if r.peek() != closer {
		return false
	}
	r.off++
	r.depth--
	return true
}

// more steps over what follows a member or element of the container that
// closer ends: a comma, and then it reports true, or closer itself.
func (r *reader) more(closer byte) (bool, error) {
	switch r.peek() {
	case ',':
		r.off++
		return true, nil
	case closer:
		r.off++
		r.depth--
		return false, nil
	}
	return false, r.unexpected("after a value")
}

// end checks that nothing but whitespace follows the value just read.
func (r *reader) end() error {
	if r.peek(); r.off < len(r.data) {
		return r.unexpected("after the top-level value")
	}
	return nil
}

// key reads an object member's key and the colon after it, and returns
// the key unquoted, valid until the next read.
func (r *reader) key() ([]byte, error) {
	if r.peek() != '"' {
		return nil, r.unexpected("where an object key belongs")
	}
	k, err := r.str()
	if err != nil {
		return nil, err
	}
	if r.peek() != ':' {
		return nil, r.unexpected("after an object key")
	}
	r.off++
	return k, nil
}

// str reads the string literal whose opening quote is next and returns its
// value, valid until the next read: its own bytes when they need no
// unquoting, else the unquoted copy in r.buf.
func (r *reader) str() ([]byte, error) {
	start := r.off + 1
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.off = i + 1
			return r.data[start:i], nil
		case c == '\\', c < ' ', c >= utf8.RuneSelf:
			return r.unquote(start, i)
		}
	}
	r.off = len(r.data)
	return nil, r.unexpected("in a string")
}

// unquote finishes str for a literal whose bytes from data[i] on need more
// than a copy; data[start:i] is plain ASCII. Escapes resolve as in JSON,
// and, as in encoding/json, invalid UTF-8 and a surrogate escape that is
// not a high-low pair become U+FFFD.
func (r *reader) unquote(start, i int) ([]byte, error) {
	b := append(r.buf[:0], r.data[start:i]...)
	for i < len(r.data) {
		switch c := r.data[i]; {
		case c == '"':
			r.off = i + 1
			r.buf = b
			return b, nil
		case c < ' ':
			r.off = i
			return nil, r.syntaxError("control character in a string")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			rn, size := utf8.DecodeRune(r.data[i:])
			b = utf8.AppendRune(b, rn)
			i += size
		case i+1 == len(r.data):
			i++
		default:
			esc := r.data[i+1]
			i += 2
			if e := unescape[esc]; e != 0 {
				b = append(b, e)
				continue
			}
			rn := hex4(r.data[i:])
			if esc != 'u' || rn < 0 {
				r.off = i - 2
				return nil, r.syntaxError("invalid escape in a string")
			}
			i += 4
			if utf16.IsSurrogate(rn) {
				// A high-low pair is one rune; AppendRune writes any other
				// surrogate as U+FFFD.
				lo := rune(-1)
				if i+1 < len(r.data) && r.data[i] == '\\' && r.data[i+1] == 'u' {
					lo = hex4(r.data[i+2:])
				}
				if pair := utf16.DecodeRune(rn, lo); pair != unicode.ReplacementChar {
					rn = pair
					i += 6
				}
			}
			b = utf8.AppendRune(b, rn)
		}
	}
	r.off = len(r.data)
	return nil, r.unexpected("in a string")
}

// unescape maps the byte after a backslash to the byte the escape stands
// for, or to 0 for \u and for bytes that start no escape.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the four hex digits that start s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var n rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		n = n<<4 | rune(c)
	}
	return n
}

// number steps over the number literal that starts at the next byte,
// checking its grammar, and returns its bytes.
func (r *reader) number() ([]byte, error) {
	d, i := r.data, r.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		r.off = i
		return nil, r.unexpected("where a value belongs")
	}
	if i < len(d) && d[i] == '.' {
		if i++; digits(d, i) == i {
			r.off = i
			return nil, r.unexpected("in a number's fraction")
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if digits(d, i) == i {
			r.off = i
			return nil, r.unexpected("in a number's exponent")
		}
		i = digits(d, i)
	}
	num := d[r.off:i]
	r.off = i
	return num, nil
}

// digits returns the index of the first byte of d at or after i that is
// not a decimal digit.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// numberFor reads the number that starts at the next byte, c, for a field
// p points at.
func (r *reader) numberFor(c byte, p any) ([]byte, error) {
	if c != '-' && (c < '0' || c > '9') {
		return nil, r.mismatch(reflect.TypeOf(p).Elem())
	}
	return r.number()
}

// literal steps over the true, false or null whose first letter is the
// next byte.
func (r *reader) literal() error {
	word := "null"
	switch r.data[r.off] {
	case 't':
		word = "true"
	case 'f':
		word = "false"
	}
	end := r.off + len(word)
	if end > len(r.data) || string(r.data[r.off:end]) != word {
		return r.syntaxError("invalid literal, want " + word)
	}
	r.off = end
	return nil
}

// mismatch reports the value at the next byte as one a field of type into
// cannot hold, or, when no value starts there, as a syntax error.
func (r *reader) mismatch(into reflect.Type) error {
	switch c := r.peek(); {
	case c == '{', c == '[', c == '"', c == 't', c == 'f', c == 'n', c == '-', '0' <= c && c <= '9':
		return fmt.Errorf("api: the JSON value at offset %d cannot be decoded into %s", r.off, into)
	}
	return r.unexpected("where a value belongs")
}

func (r *reader) syntaxError(msg string) error {
	return fmt.Errorf("api: invalid JSON at offset %d: %s", r.off, msg)
}

// unexpected reports the byte at r.off, or the end of the data, as out of
// place where context says.
func (r *reader) unexpected(context string) error {
	if r.off >= len(r.data) {
		return fmt.Errorf("api: invalid JSON: unexpected end of data %s", context)
	}
	return r.syntaxError(fmt.Sprintf("unexpected %q %s", r.data[r.off], context))
}

// fields lists one struct's JSON field names in declaration order, the
// order the reader's pointer lists follow.
type fields struct {
	typ    reflect.Type
	names  []string // from the json tags
	folded []string // foldName of each name, for the case-insensitive match
}

var (
	batchResponseFields = fieldsOf[BatchResponse]()
	batchItemFields     = fieldsOf[BatchItem]()
	resultFields        = fieldsOf[Result]()
	cpiStackFields      = fieldsOf[CPIStack]()
	powerStackFields    = fieldsOf[PowerStack]()

	searchEventFields       = fieldsOf[SearchEvent]()
	searchJobResponseFields = fieldsOf[SearchJobResponse]()
	searchJobFields         = fieldsOf[SearchJob]()
	searchReportFields      = fieldsOf[SearchReport]()
	searchEvalFields        = fieldsOf[SearchEval]()
	searchTraceStepFields   = fieldsOf[SearchTraceStep]()
)

func fieldsOf[T any]() *fields {
	fs := &fields{typ: reflect.TypeFor[T]()}
	for i := range fs.typ.NumField() {
		name, _, _ := strings.Cut(fs.typ.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			panic(fmt.Sprintf("api: %s.%s has no json name", fs.typ, fs.typ.Field(i).Name))
		}
		fs.names = append(fs.names, name)
		fs.folded = append(fs.folded, string(foldName(nil, []byte(name))))
	}
	return fs
}

// index returns the index of the field key names, or -1. It tries hint
// first, the field after the last one matched, since encoders write fields
// in order. As in encoding/json, an exact match wins over a case-folded
// one, and the first case-folded match wins.
func (fs *fields) index(key []byte, hint int) int {
	if hint < len(fs.names) && string(key) == fs.names[hint] {
		return hint
	}
	for i, name := range fs.names {
		if string(key) == name {
			return i
		}
	}
	var buf [32]byte
	folded := foldName(buf[:0], key)
	for i, name := range fs.folded {
		if string(folded) == name {
			return i
		}
	}
	return -1
}

// foldName appends name folded as encoding/json folds keys: ASCII letters
// upper-cased, and every other rune mapped to the smallest rune it
// case-folds to, so that 'ſ' matches 's' and the Kelvin sign matches 'k'.
func foldName(out, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		rn, size := utf8.DecodeRune(name[i:])
		for {
			next := unicode.SimpleFold(rn)
			if next <= rn {
				rn = next
				break
			}
			rn = next
		}
		out = utf8.AppendRune(out, rn)
		i += size
	}
	return out
}
