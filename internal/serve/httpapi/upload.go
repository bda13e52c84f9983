package httpapi

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/serve/engine"
)

// decodeUpload decodes an upload body into req. Its cost under
// encoding/json is reflection, not number parsing, so the shape every
// client sends — one object whose keys are the exact lowercase field
// names, each at most once, a name of plain ASCII with no escapes, and
// numbers in strict JSON grammar that strconv parses to finite values
// in range — is tokenized by hand (parseUpload), with the numbers still
// converted by strconv. Any body that parse does not take in full goes
// to json.Decoder, so the bodies accepted, the values decoded and every
// error are json.Decoder's own (FuzzUploadDecode). Like json.Decoder,
// it ignores whatever follows the object.
func decodeUpload(body []byte, req *engine.UploadRequest) error {
	if parseUpload(body, req) {
		return nil
	}
	*req = engine.UploadRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// parseUpload is decodeUpload's fast path: it reports whether body is
// an upload object of the canonical shape, and fills req if so. It
// allocates once per array and once for the name, never per number.
func parseUpload(body []byte, req *engine.UploadRequest) bool {
	s := scanner{b: body}
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen [6]bool
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		f := -1
		switch string(key) {
		case "name":
			f = 0
			var name []byte
			if name, ok = s.str(); ok {
				req.Name = string(name)
			}
		case "rows":
			f = 1
			req.Rows, ok = value(&s, toInt)
		case "cols":
			f = 2
			req.Cols, ok = value(&s, toInt)
		case "row":
			f = 3
			req.Row, ok = array(&s, toInt)
		case "col":
			f = 4
			req.Col, ok = array(&s, toInt)
		case "val":
			f = 5
			req.Val, ok = array(&s, toFloat)
		}
		if f < 0 || seen[f] || !ok {
			return false
		}
		seen[f] = true
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// scanner walks a JSON body for parseUpload. Every method skips the
// whitespace JSON allows before a token and reports false on anything
// outside the canonical shape, leaving the rest to json.Decoder.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII with no escapes and returns
// its contents, which are then exactly the bytes json.Decoder decodes.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (s *scanner) number() ([]byte, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	num := b[s.i:i]
	s.i = i
	return num, true
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// toInt converts a number token to the int64 json.Decoder gives an
// int64 field: strconv refuses a fraction, an exponent and overflow.
func toInt(num []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(num), 10, 64)
	return v, err == nil
}

// toFloat converts a number token to the float64 json.Decoder gives a
// float64 field: strconv must parse it without error, which for JSON's
// grammar means to a finite value (out of range is ±Inf and ErrRange).
func toFloat(num []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// value consumes a number and converts it with conv.
func value[T int64 | float64](s *scanner, conv func([]byte) (T, bool)) (T, bool) {
	num, ok := s.number()
	if !ok {
		var zero T
		return zero, false
	}
	return conv(num)
}

// array consumes a JSON array of numbers converted by conv. Its length
// is bounded by the commas before the first ']', so the slice is
// allocated once; an empty array gives an empty slice that is not nil,
// as json.Decoder's does. A run of commas with no room for numbers
// between them is refused before anything is allocated for it.
func array[T int64 | float64](s *scanner, conv func([]byte) (T, bool)) ([]T, bool) {
	if !s.eat('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	commas := bytes.Count(s.b[s.i:s.i+end], []byte{','})
	if commas > 0 && 2*commas+1 > end {
		return nil, false
	}
	out := make([]T, 0, commas+1)
	if s.eat(']') {
		return out, true
	}
	for {
		v, ok := value(s, conv)
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.eat(']') {
			return out, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}
