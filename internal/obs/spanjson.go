package obs

import (
	"encoding/json"
	"strconv"
)

// decodeSpan decodes one trace line. Lines in the exact shape the
// Tracer writes — compact JSON, known keys in their exact case, plain
// ASCII strings without escapes, integers where the field is an
// integer — take a direct byte parser; anything else (whitespace,
// escapes, unknown or differently cased keys, null, malformed input)
// goes through json.Unmarshal. The direct parser accepts only input
// json.Unmarshal accepts and decodes it to the same Span, so the two
// paths cannot disagree; it exists because reflection-driven decoding
// was most of the cost of reading a trace.
func decodeSpan(b []byte, s *Span) error {
	if parseSpan(b, s) {
		return nil
	}
	*s = Span{}
	return json.Unmarshal(b, s)
}

// parseSpan is decodeSpan's direct parser; false means "not in the
// Tracer's shape", never "malformed", and leaves s partly written.
func parseSpan(b []byte, s *Span) bool {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return false
	}
	p := 1
	if b[p] == '}' {
		return p == len(b)-1
	}
	for {
		key, next, ok := plainString(b, p)
		if !ok || next >= len(b) || b[next] != ':' {
			return false
		}
		p = next + 1
		switch string(key) {
		case "span":
			s.Kind, p, ok = stringField(b, p)
		case "event":
			s.Event, p, ok = stringField(b, p)
		case "id":
			s.ID, p, ok = uintField(b, p)
		case "parent":
			s.Parent, p, ok = uintField(b, p)
		case "system":
			s.System, p, ok = stringField(b, p)
		case "campaign":
			s.Campaign, p, ok = stringField(b, p)
		case "start":
			s.Start, p, ok = stringField(b, p)
		case "total":
			s.Total, p, ok = intField(b, p)
		case "restored":
			s.Restored, p, ok = intField(b, p)
		case "runs":
			s.Runs, p, ok = intField(b, p)
		case "bugs":
			s.Bugs, p, ok = intField(b, p)
		case "run":
			var run int
			if run, p, ok = intField(b, p); ok {
				s.Run = &run
			}
		case "crash":
			s.Crash, p, ok = stringField(b, p)
		case "fault":
			s.Fault, p, ok = stringField(b, p)
		case "target":
			s.Target, p, ok = stringField(b, p)
		case "outcome":
			s.Outcome, p, ok = stringField(b, p)
		case "phase":
			s.Phase, p, ok = stringField(b, p)
		case "wall_ms":
			s.WallMS, p, ok = floatField(b, p)
		case "sim_ms":
			s.SimMS, p, ok = floatField(b, p)
		default:
			return false
		}
		if !ok || p >= len(b) {
			return false
		}
		switch b[p] {
		case '}':
			return p == len(b)-1
		case ',':
			p++
		default:
			return false
		}
	}
}

// plainString reads the string starting at b[p] when it holds printable
// ASCII only, no escapes: exactly the bytes json.Unmarshal would
// decode it to. It returns the contents and the index after the
// closing quote.
func plainString(b []byte, p int) ([]byte, int, bool) {
	if p >= len(b) || b[p] != '"' {
		return nil, 0, false
	}
	for i := p + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[p+1 : i], i + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

func stringField(b []byte, p int) (string, int, bool) {
	v, next, ok := plainString(b, p)
	if !ok {
		return "", 0, false
	}
	// The span vocabulary repeats on every line; only names and
	// timestamps need their own copy.
	switch string(v) {
	case SpanCampaign:
		return SpanCampaign, next, true
	case SpanRun:
		return SpanRun, next, true
	case SpanPhase:
		return SpanPhase, next, true
	case EventStart:
		return EventStart, next, true
	case EventEnd:
		return EventEnd, next, true
	}
	return string(v), next, true
}

// digits returns the index after the run of decimal digits at b[p].
func digits(b []byte, p int) int {
	for p < len(b) && b[p] >= '0' && b[p] <= '9' {
		p++
	}
	return p
}

// integer returns the end of a JSON integer (-?(0|[1-9][0-9]*)) at
// b[p], or -1 when none starts there.
func integer(b []byte, p int) int {
	if p < len(b) && b[p] == '-' {
		p++
	}
	end := digits(b, p)
	if end == p || (b[p] == '0' && end > p+1) {
		return -1
	}
	return end
}

func uintField(b []byte, p int) (uint64, int, bool) {
	end := integer(b, p)
	if end < 0 || b[p] == '-' {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(string(b[p:end]), 10, 64)
	return v, end, err == nil
}

func intField(b []byte, p int) (int, int, bool) {
	end := integer(b, p)
	if end < 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseInt(string(b[p:end]), 10, strconv.IntSize)
	return int(v), end, err == nil
}

// floatField reads a JSON number (integer, fraction, exponent) the way
// json.Unmarshal does for a float64: strconv.ParseFloat over its text.
func floatField(b []byte, p int) (float64, int, bool) {
	end := integer(b, p)
	if end < 0 {
		return 0, 0, false
	}
	if end < len(b) && b[end] == '.' {
		frac := digits(b, end+1)
		if frac == end+1 {
			return 0, 0, false
		}
		end = frac
	}
	if end < len(b) && (b[end] == 'e' || b[end] == 'E') {
		exp := end + 1
		if exp < len(b) && (b[exp] == '+' || b[exp] == '-') {
			exp++
		}
		e := digits(b, exp)
		if e == exp {
			return 0, 0, false
		}
		end = e
	}
	v, err := strconv.ParseFloat(string(b[p:end]), 64)
	return v, end, err == nil
}
