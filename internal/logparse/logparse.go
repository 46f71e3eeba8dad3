// Package logparse implements the paper's offline log analysis (§3.1.1,
// §3.3): extracting log patterns from the logging statements of the system
// under test, and matching runtime log instances back to patterns so the
// runtime values of logged variables can be recovered.
//
// Matching follows the reverse-index approach of Xu et al. (SOSP '09)
// adopted by the paper: a word-level inverted index over the constant
// segments of every pattern yields a matching score per candidate
// pattern; the 10 highest-scoring candidates are then checked for an
// exact structural match, and the first exact match wins.
//
// The matching data plane is allocation-free in steady state: scoring
// uses a dense per-pattern score array with an epoch counter instead of a
// map, candidate selection is a bounded insertion into a top-K scratch
// array instead of a full sort, and record words are scanned in place
// instead of being split into a fresh slice. The scratch state lives in a
// MatchSession; a shared Matcher is immutable after construction and
// serves any number of concurrent sessions (see DESIGN.md §7).
package logparse

import (
	"strings"

	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Data-plane instruments on the default registry, pre-allocated so the
// per-record updates are single atomic adds and the rejection path stays
// allocation-free.
var (
	matchTotal = obs.Default.Counter("crashtuner_matcher_records_total")
	matchHits  = obs.Default.Counter("crashtuner_matcher_hits_total")
)

// Pattern is one extracted log pattern (Fig. 5(b)).
type Pattern struct {
	// Point identifies the logging statement (the OpLog instruction).
	Point ir.PointID
	Stmt  *ir.LogStmt
}

// Regex renders the pattern with (.*) placeholders.
func (p *Pattern) Regex() string { return p.Stmt.Pattern() }

// Match is a successfully parsed runtime log instance: the pattern it
// matches and the extracted runtime values of the logged variables, in
// argument order (highlighted red in Fig. 5(c)).
type Match struct {
	Record  dslog.Record
	Pattern *Pattern
	Values  []string
}

// DefaultTopK is the number of highest-scoring candidates checked for an
// exact structural match; the paper uses 10.
const DefaultTopK = 10

// Matcher matches runtime log instances against the extracted patterns.
// It is immutable after NewMatcher and safe for concurrent use; per-match
// scratch state lives in MatchSessions.
type Matcher struct {
	patterns []*Pattern
	// index maps a word to the pattern indexes whose constant segments
	// contain it (the reverse index).
	index map[string][]int32
	// TopK is the number of highest-scoring candidates to try for an
	// exact match. NewMatcher resolves the default (DefaultTopK) once at
	// construction; values <= 0 mean "try every candidate".
	TopK int

	// First-token prefilter: a record can only exact-match some pattern
	// if its first word satisfies one pattern's anchored first segment,
	// so most non-meta-info records are rejected before scoring. The
	// filter is disabled (prefilter=false) when any pattern has no
	// anchoring word in its first segment.
	prefilter bool
	preExact  map[string]bool
	prePrefix []string
}

// ExtractPatterns walks the program and returns one Pattern per logging
// statement. Logging statements are recognized in the IR the same way the
// paper recognizes them in bytecode: call sites whose method name is one
// of the common logging interfaces (fatal/error/warn/info/debug/trace) —
// in the IR these are OpLog instructions carrying the statement.
func ExtractPatterns(p *ir.Program) []*Pattern {
	var out []*Pattern
	for _, ins := range p.LogStmts() {
		out = append(out, &Pattern{Point: ins.ID, Stmt: ins.Log})
	}
	return out
}

// NewMatcher builds the reverse index and the first-token prefilter over
// the given patterns. Pattern segments are tokenized here, once, so the
// per-record path never re-derives pattern-side state.
func NewMatcher(patterns []*Pattern) *Matcher {
	m := &Matcher{
		patterns: patterns,
		// Sized for about four distinct words a pattern, so building the
		// index does not regrow the map.
		index:     make(map[string][]int32, 4*len(patterns)),
		TopK:      DefaultTopK,
		prefilter: true,
		preExact:  make(map[string]bool),
	}
	seenPrefix := map[string]bool{}
	for i, p := range patterns {
		for _, seg := range p.Stmt.Segments {
			forEachWord(seg, func(w string) {
				// Patterns are indexed in order, so a word this pattern
				// already contributed is the last entry of its list.
				if l := m.index[w]; len(l) == 0 || l[len(l)-1] != int32(i) {
					m.index[w] = append(l, int32(i))
				}
			})
		}
		// Prefilter contribution of this pattern's anchored first segment.
		if len(p.Stmt.Segments) == 0 {
			m.prefilter = false
			continue
		}
		seg0 := p.Stmt.Segments[0]
		wi, wj := firstWord(seg0)
		if wi < 0 {
			// Leading variable (or wordless anchor): any first token could
			// open a matching record, so the filter is unsound — disable.
			m.prefilter = false
			continue
		}
		w := seg0[wi:wj]
		if wj < len(seg0) || len(p.Stmt.Segments) == 1 {
			// The word is terminated inside the anchor (or the pattern is
			// a pure constant): a matching record's first token is exactly w.
			m.preExact[w] = true
		} else if !seenPrefix[w] {
			// The anchor ends mid-word ("node" + var): the record's first
			// token merely starts with w.
			seenPrefix[w] = true
			m.prePrefix = append(m.prePrefix, w)
		}
	}
	return m
}

// matcherKey is the ir.Program.Derived slot of MatcherFor.
type matcherKey struct{}

// MatcherFor returns the matcher over the program's own patterns,
// NewMatcher(ExtractPatterns(p)). It is a function of the program alone
// and immutable, so it is built once per program and shared by every
// caller; scratch state stays in each caller's MatchSession.
func MatcherFor(p *ir.Program) *Matcher {
	return p.Derived(matcherKey{}, func() any { return NewMatcher(ExtractPatterns(p)) }).(*Matcher)
}

// isWordByte reports whether b belongs to an index word. The class is
// ASCII-only, so byte-wise scanning agrees with the rune-wise split the
// matcher historically used.
func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// forEachWord calls fn for every maximal word run in s, in order, without
// allocating.
func forEachWord(s string, fn func(w string)) {
	for i, n := 0, len(s); i < n; {
		for i < n && !isWordByte(s[i]) {
			i++
		}
		if i >= n {
			return
		}
		j := i + 1
		for j < n && isWordByte(s[j]) {
			j++
		}
		fn(s[i:j])
		i = j
	}
}

// firstWord returns the bounds of the first word run in s, or (-1, -1).
func firstWord(s string) (int, int) {
	for i, n := 0, len(s); i < n; i++ {
		if isWordByte(s[i]) {
			j := i + 1
			for j < n && isWordByte(s[j]) {
				j++
			}
			return i, j
		}
	}
	return -1, -1
}

// words splits a constant segment into index words.
func words(s string) []string {
	var out []string
	forEachWord(s, func(w string) { out = append(out, w) })
	return out
}

// scored is one top-K candidate: a pattern index and its score.
type scored struct {
	idx   int32
	score int32
}

// MatchSession holds the reusable scratch state of the matching data
// plane: the dense score array, the epoch marks that stand in for
// clearing it, the touched-candidate list and the top-K selection
// scratch. A session is cheap to keep per goroutine and must not be used
// concurrently; the Matcher it came from may be shared freely.
type MatchSession struct {
	m       *Matcher
	scores  []int32
	mark    []uint32
	epoch   uint32
	touched []int32
	cands   []scored
}

// NewSession returns a scratch session bound to the matcher.
func (m *Matcher) NewSession() *MatchSession {
	return &MatchSession{
		m:      m,
		scores: make([]int32, len(m.patterns)),
		mark:   make([]uint32, len(m.patterns)),
	}
}

// Match parses one runtime log instance. It returns nil if no pattern
// matches exactly. The only allocations are those of a successful match
// (the Match itself and its extracted values); rejected records are
// processed allocation-free — the hit-rate instruments are lock-free
// atomic counters.
func (s *MatchSession) Match(rec dslog.Record) *Match {
	mt := s.match(rec)
	matchTotal.Inc()
	if mt != nil {
		matchHits.Inc()
	}
	return mt
}

func (s *MatchSession) match(rec dslog.Record) *Match {
	m := s.m
	text := rec.Text
	ti, tj := firstWord(text)
	if ti < 0 {
		// No words: no index hits, and (when the prefilter is sound) no
		// anchored pattern can match a wordless record either.
		return nil
	}
	if m.prefilter && !m.firstTokenOK(text[ti:tj]) {
		return nil
	}

	// Score every candidate hit by an index word. The epoch mark makes
	// stale scores invisible without clearing the dense array.
	s.epoch++
	if s.epoch == 0 { // wrapped: reset all marks, restart at epoch 1
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	touched := s.touched[:0]
	for i, j := ti, tj; ; {
		for _, pi := range m.index[text[i:j]] {
			if s.mark[pi] != s.epoch {
				s.mark[pi] = s.epoch
				s.scores[pi] = 0
				touched = append(touched, pi)
			}
			s.scores[pi]++
		}
		i = j
		for i < len(text) && !isWordByte(text[i]) {
			i++
		}
		if i >= len(text) {
			break
		}
		j = i + 1
		for j < len(text) && isWordByte(text[j]) {
			j++
		}
	}
	s.touched = touched
	if len(touched) == 0 {
		// No index word hit: return before any candidate assembly.
		return nil
	}

	// Select the top-K candidates by (score desc, pattern order asc) with
	// a bounded insertion pass — no full sort of the candidate set.
	k := m.TopK
	if k <= 0 || k > len(touched) {
		k = len(touched)
	}
	cands := s.cands[:0]
	for _, pi := range touched {
		sc := s.scores[pi]
		if len(cands) == k {
			last := cands[k-1]
			if !(sc > last.score || sc == last.score && pi < last.idx) {
				continue
			}
			cands = cands[:k-1]
		}
		pos := len(cands)
		cands = append(cands, scored{})
		for pos > 0 {
			prev := cands[pos-1]
			if sc > prev.score || sc == prev.score && pi < prev.idx {
				cands[pos] = prev
				pos--
			} else {
				break
			}
		}
		cands[pos] = scored{idx: pi, score: sc}
	}
	s.cands = cands

	for _, c := range cands {
		p := m.patterns[c.idx]
		if vals, ok := parseExact(text, p.Stmt.Segments); ok {
			return &Match{Record: rec, Pattern: p, Values: vals}
		}
	}
	return nil
}

// firstTokenOK reports whether tok can open a record that exact-matches
// at least one pattern's anchored first segment.
func (m *Matcher) firstTokenOK(tok string) bool {
	if m.preExact[tok] {
		return true
	}
	for _, p := range m.prePrefix {
		if strings.HasPrefix(tok, p) {
			return true
		}
	}
	return false
}

// parseExact attempts a structural match of text against the interleaved
// constant segments, returning the variable values between them. The
// first segment must anchor at the start and the last at the end;
// intermediate segments are located left-to-right at their first
// occurrence (equivalent to a non-greedy (.*) regex match).
func parseExact(text string, segments []string) ([]string, bool) {
	nArgs := len(segments) - 1
	if nArgs < 0 {
		return nil, false
	}
	if nArgs == 0 {
		if text == segments[0] {
			return []string{}, true
		}
		return nil, false
	}
	if !strings.HasPrefix(text, segments[0]) {
		return nil, false
	}
	vals := make([]string, 0, nArgs)
	pos := len(segments[0])
	for i := 1; i <= nArgs; i++ {
		seg := segments[i]
		if i == nArgs {
			// Last segment must be a suffix at/after pos.
			if seg == "" {
				vals = append(vals, text[pos:])
				return vals, true
			}
			if !strings.HasSuffix(text, seg) || len(text)-len(seg) < pos {
				return nil, false
			}
			vals = append(vals, text[pos:len(text)-len(seg)])
			return vals, true
		}
		if seg == "" {
			// An empty intermediate segment cannot separate two values;
			// treat as unmatchable to avoid ambiguity.
			return nil, false
		}
		j := strings.Index(text[pos:], seg)
		if j < 0 {
			return nil, false
		}
		vals = append(vals, text[pos:pos+j])
		pos += j + len(seg)
	}
	return vals, true
}

// Result aggregates a full parse of a run's logs.
type Result struct {
	Matches   []*Match
	Unmatched []dslog.Record
}

// ParseAll matches every record against the matcher.
func (m *Matcher) ParseAll(records []dslog.Record) Result {
	s := m.NewSession()
	var r Result
	for _, rec := range records {
		if mt := s.Match(rec); mt != nil {
			r.Matches = append(r.Matches, mt)
		} else {
			r.Unmatched = append(r.Unmatched, rec)
		}
	}
	return r
}

// Patterns returns the matcher's patterns.
func (m *Matcher) Patterns() []*Pattern { return m.patterns }
