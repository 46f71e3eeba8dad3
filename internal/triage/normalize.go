// Package triage turns raw fault-injection run reports into a
// persistent, deduplicated bug database — the automation of the manual
// step behind the paper's headline numbers (§6, Tables 8–10): collapsing
// thousands of failing runs into distinct bugs.
//
// The package is layered below the trigger: it depends only on the
// campaign engine and the observability layer, so the trigger, the
// baselines and the core pipeline can all feed it through
// campaign.Config.Recorder without an import cycle.
//
//   - normalize.go: the volatile-token normalizer. Exception signatures,
//     failure reasons and stack frames pass through it so the same bug
//     hashes identically across seeds, worker counts and campaigns.
//   - signature.go: the canonical bug signature (static crash point +
//     fault kind + oracle verdict + normalized exception + bounded stack
//     hash).
//   - record.go / store.go: one JSONL record per failing run, in an
//     append-only store with fsync'd batches and torn-tail healing.
//   - index.go: the in-memory index — load/merge of store files, exact
//     signature clustering with a nearest-cluster fallback, ranking.
//   - confirm.go: the one-replay confirmation pass (CONFIRMED /
//     UNREPRODUCED).
//   - suppress.go: the known-issue suppression list.
package triage

import "strings"

// Placeholders substituted for volatile tokens. None of them contains a
// digit or a colon, so normalization is idempotent: a normalized string
// passes through NormalizeText unchanged.
const (
	phNode = "<node>" // host:port, ip:port, [v6]:port
	phTS   = "<ts>"   // dates, clocks, zones
	phHex  = "<hex>"  // long hexadecimal identifiers
	phDur  = "<dur>"  // durations ("1.500s", "200ms", "1h2m")
	phNum  = "<n>"    // standalone integers (ids, counters, steps)
)

// NormalizeText canonicalizes free-form log/exception text by replacing
// volatile tokens — host:port values, timestamps, hexadecimal ids,
// durations, standalone numbers — with fixed placeholders. Structural
// digits embedded in identifiers ("Http2Exception", "node1" without a
// port) are preserved: a digit run is only rewritten when it is not
// attached to a letter. The function is deterministic, idempotent and
// never panics on arbitrary input (see FuzzNormalizeText).
func NormalizeText(s string) string {
	// Fast path: text with no digits has no volatile tokens.
	if !hasDigit(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == '[':
			if j, ok := scanBracket6(s, i); ok {
				b.WriteString(phNode)
				i = j
				continue
			}
			b.WriteByte(c)
			i++
		case isDigit(c) && !prevAlnum(s, i):
			if j, ok := scanTimestamp(s, i); ok {
				b.WriteString(phTS)
				i = j
				continue
			}
			if j, ok := scanIPv4(s, i); ok {
				b.WriteString(phNode)
				i = j
				continue
			}
			if j, ok := scanDuration(s, i); ok {
				b.WriteString(phDur)
				i = j
				continue
			}
			if j, ok := scanHexRun(s, i); ok {
				b.WriteString(phHex)
				i = j
				continue
			}
			j := i
			for j < len(s) && isDigit(s[j]) {
				j++
			}
			if j < len(s) && isLetter(s[j]) {
				// Digit run glued to a trailing letter ("2Exception"):
				// structural, keep it.
				b.WriteString(s[i:j])
			} else {
				b.WriteString(phNum)
			}
			i = j
		case isLetter(c) && !prevAlnum(s, i):
			j := i
			for j < len(s) && isTokenChar(s[j]) {
				j++
			}
			if k, ok := scanPort(s, j); ok {
				// word:port — a resolved node address. The whole
				// hostname-shaped token ("node-3.rack2_x") is consumed
				// only on a successful port match.
				b.WriteString(phNode)
				i = k
				continue
			}
			// No port: consume just the leading alnum run, so digit runs
			// after separators inside the token ("attempt_task_3_2")
			// still reach the number rule.
			j = i
			for j < len(s) && isAlnum(s[j]) {
				j++
			}
			run := s[i:j]
			if isHexToken(run) {
				b.WriteString(phHex)
			} else {
				b.WriteString(run)
			}
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// NormalizeException canonicalizes one exception signature. Signatures
// are "Kind@Class.method" strings, but systems interpolate volatile
// detail (ports, ids) into some of them; the text normalizer strips it.
func NormalizeException(sig string) string { return NormalizeText(sig) }

func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if isDigit(s[i]) {
			return true
		}
	}
	return false
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isAlnum(c byte) bool  { return isDigit(c) || isLetter(c) }

// isTokenChar delimits hostname-shaped tokens ("node1.rack-2_x").
func isTokenChar(c byte) bool {
	return isAlnum(c) || c == '.' || c == '_' || c == '-'
}

// prevAlnum reports whether the byte before position i glues onto an
// identifier (so a digit run there is structural, not volatile).
func prevAlnum(s string, i int) bool {
	return i > 0 && isAlnum(s[i-1])
}

// boundary reports whether position i ends a token.
func boundary(s string, i int) bool {
	return i >= len(s) || !isAlnum(s[i])
}

// scanBracket6 matches "[v6-ish]" optionally followed by ":port".
func scanBracket6(s string, i int) (int, bool) {
	j := i + 1
	colons := 0
	for j < len(s) && s[j] != ']' {
		c := s[j]
		if c == ':' {
			colons++
		} else if !isHexDigit(c) && c != '.' {
			return 0, false
		}
		j++
	}
	if j >= len(s) || colons == 0 {
		return 0, false
	}
	j++ // ']'
	if k, ok := scanPort(s, j); ok {
		return k, true
	}
	return j, true
}

// scanPort matches ":12345" at position i with a boundary after.
func scanPort(s string, i int) (int, bool) {
	if i >= len(s) || s[i] != ':' {
		return 0, false
	}
	j := i + 1
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	if j == i+1 || j-(i+1) > 5 || !boundary(s, j) {
		return 0, false
	}
	return j, true
}

// scanDigits matches exactly n digits.
func scanDigits(s string, i, n int) (int, bool) {
	if i+n > len(s) {
		return 0, false
	}
	for k := 0; k < n; k++ {
		if !isDigit(s[i+k]) {
			return 0, false
		}
	}
	return i + n, true
}

// scanClock matches "3:04:05" or "15:04:05.999" with a boundary after.
func scanClock(s string, i int) (int, bool) {
	j, ok := scanClockCore(s, i)
	if !ok || !boundary(s, j) {
		return 0, false
	}
	return j, true
}

// scanClockCore matches the clock shape without the trailing-boundary
// requirement, so scanTimestamp can attach zone suffixes ("Z").
func scanClockCore(s string, i int) (int, bool) {
	j := i
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	if j == i || j-i > 2 || j >= len(s) || s[j] != ':' {
		return 0, false
	}
	j, ok := scanDigits(s, j+1, 2)
	if !ok || j >= len(s) || s[j] != ':' {
		return 0, false
	}
	j, ok = scanDigits(s, j+1, 2)
	if !ok {
		return 0, false
	}
	if j < len(s) && s[j] == '.' {
		k := j + 1
		for k < len(s) && isDigit(s[k]) {
			k++
		}
		if k > j+1 {
			j = k
		}
	}
	return j, true
}

// scanTimestamp matches ISO dates ("2019-10-27", optionally with a T- or
// space-joined clock and zone suffix) and bare clocks ("12:34:56.789").
func scanTimestamp(s string, i int) (int, bool) {
	if j, ok := scanClock(s, i); ok {
		return j, true
	}
	j, ok := scanDigits(s, i, 4)
	if !ok || j >= len(s) || s[j] != '-' {
		return 0, false
	}
	j, ok = scanDigits(s, j+1, 2)
	if !ok || j >= len(s) || s[j] != '-' {
		return 0, false
	}
	j, ok = scanDigits(s, j+1, 2)
	if !ok {
		return 0, false
	}
	if j < len(s) && (s[j] == 'T' || s[j] == ' ') {
		if k, ok := scanClockCore(s, j+1); ok {
			j = k
			if j < len(s) && s[j] == 'Z' && boundary(s, j+1) {
				j++
			} else if j+5 < len(s) && (s[j] == '+' || s[j] == '-') && s[j+3] == ':' {
				if k, ok := scanDigits(s, j+1, 2); ok {
					if k, ok := scanDigits(s, k+1, 2); ok && boundary(s, k) {
						j = k
					}
				}
			}
		}
	}
	if !boundary(s, j) {
		return 0, false
	}
	return j, true
}

// scanIPv4 matches "1.2.3.4" with an optional ":port".
func scanIPv4(s string, i int) (int, bool) {
	j := i
	for oct := 0; oct < 4; oct++ {
		k := j
		for k < len(s) && isDigit(s[k]) {
			k++
		}
		if k == j || k-j > 3 {
			return 0, false
		}
		j = k
		if oct < 3 {
			if j >= len(s) || s[j] != '.' {
				return 0, false
			}
			j++
		}
	}
	if k, ok := scanPort(s, j); ok {
		return k, true
	}
	if !boundary(s, j) || (j < len(s) && s[j] == '.') {
		return 0, false
	}
	return j, true
}

// durUnit matches a duration unit at i: ns, us, µs, ms, s, m, h.
func durUnit(s string, i int) (int, bool) {
	if i < len(s) {
		switch s[i] {
		case 'n', 'u', 'm':
			if i+1 < len(s) && s[i+1] == 's' {
				return i + 2, true
			}
			if s[i] == 'm' {
				return i + 1, true
			}
		case 's', 'h':
			return i + 1, true
		}
		// "µs" is the two-byte UTF-8 sequence 0xC2 0xB5.
		if s[i] == 0xC2 && i+2 < len(s) && s[i+1] == 0xB5 && s[i+2] == 's' {
			return i + 3, true
		}
	}
	return 0, false
}

// scanDuration matches one or more digit(+fraction)+unit groups with a
// boundary after ("1.500s", "200ms", "1h2m3s").
func scanDuration(s string, i int) (int, bool) {
	j := i
	groups := 0
	for j < len(s) && isDigit(s[j]) {
		k := j
		for k < len(s) && isDigit(s[k]) {
			k++
		}
		if k < len(s) && s[k] == '.' {
			f := k + 1
			for f < len(s) && isDigit(s[f]) {
				f++
			}
			if f > k+1 {
				k = f
			}
		}
		u, ok := durUnit(s, k)
		if !ok {
			return 0, false
		}
		j = u
		groups++
	}
	if groups == 0 || !boundary(s, j) {
		return 0, false
	}
	return j, true
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanHexRun matches a digit-led hexadecimal run of >= 8 chars that
// contains at least one hex letter ("0123abcd...", "0xdeadbeef").
func scanHexRun(s string, i int) (int, bool) {
	j := i
	if s[i] == '0' && i+1 < len(s) && (s[i+1] == 'x' || s[i+1] == 'X') {
		k := i + 2
		for k < len(s) && isHexDigit(s[k]) {
			k++
		}
		if k >= i+6 && boundary(s, k) {
			return k, true
		}
		return 0, false
	}
	letters := 0
	for j < len(s) && isHexDigit(s[j]) {
		if !isDigit(s[j]) {
			letters++
		}
		j++
	}
	if j-i >= 8 && letters > 0 && boundary(s, j) {
		return j, true
	}
	return 0, false
}

// isHexToken reports whether a letter-led token is a hexadecimal id
// ("deadbeef01"): >= 8 chars, all hex, at least one digit.
func isHexToken(tok string) bool {
	if len(tok) < 8 {
		return false
	}
	digits := 0
	for i := 0; i < len(tok); i++ {
		if !isHexDigit(tok[i]) {
			return false
		}
		if isDigit(tok[i]) {
			digits++
		}
	}
	return digits > 0
}
