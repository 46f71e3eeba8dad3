package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// op share its ordinal; parent is the id of the enclosing span (0 for
// the op's root span).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records spans in memory from the single client goroutine; work
// the program does on its own goroutines (fleet workers) is counted by
// the decorators in fleet_triage.go, not here. A nil *spans records
// nothing, so code that is already a sequence of public layer calls
// runs the same lines traced and untraced.
type spans struct {
	t0   time.Time
	all  []span
	open []int // indices into all, innermost last
	op   int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// time runs fn under a span called name.
func (s *spans) time(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.all[s.open[n-1]].ID
	}
	i := len(s.all)
	s.all = append(s.all, span{Op: s.op, ID: i + 1, Parent: parent, Name: name, Start: int64(time.Since(s.t0))})
	s.open = append(s.open, i)
	// Closed in a defer so that a panicking layer call leaves the stack
	// balanced for the next op.
	defer func() {
		s.all[i].End = int64(time.Since(s.t0))
		s.open = s.open[:len(s.open)-1]
	}()
	fn()
}

// nextOp starts a new op ordinal for the spans that follow.
func (s *spans) nextOp() {
	if s != nil {
		s.op++
	}
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.all {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  time.Duration // total minus the time covered by child spans
}

// selfTimes folds the spans by name. Child spans of one parent never
// overlap (one goroutine records them), so a span's self time is its
// duration minus the summed durations of its direct children.
func (s *spans) selfTimes() []layerTime {
	childSum := make(map[int]time.Duration, len(s.all))
	for _, sp := range s.all {
		if sp.Parent != 0 {
			childSum[sp.Parent] += time.Duration(sp.End - sp.Start)
		}
	}
	byName := map[string]*layerTime{}
	for _, sp := range s.all {
		lt := byName[sp.Name]
		if lt == nil {
			lt = &layerTime{name: sp.Name}
			byName[sp.Name] = lt
		}
		d := time.Duration(sp.End - sp.Start)
		lt.count++
		lt.total += d
		lt.self += d - childSum[sp.ID]
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// coverage is the share of op time the layer spans below the op account
// for: summed durations of the spans that have no children, over the
// summed durations of the root spans. Glue code between layer calls is
// what keeps it below 1.
func (s *spans) coverage() float64 {
	hasChild := make(map[int]bool, len(s.all))
	for _, sp := range s.all {
		if sp.Parent != 0 {
			hasChild[sp.Parent] = true
		}
	}
	var roots, leaves int64
	for _, sp := range s.all {
		d := sp.End - sp.Start
		if sp.Parent == 0 {
			roots += d
		}
		if sp.Parent != 0 && !hasChild[sp.ID] {
			leaves += d
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(leaves) / float64(roots)
}

// durations returns the duration of every span called name.
func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.all {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start))
		}
	}
	return out
}

// printSelfTimes renders the self-time table of a traced run.
func (s *spans) printSelfTimes(w io.Writer) {
	var rootTotal time.Duration
	for _, sp := range s.all {
		if sp.Parent == 0 {
			rootTotal += time.Duration(sp.End - sp.Start)
		}
	}
	fmt.Fprintf(w, "%-24s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, lt := range s.selfTimes() {
		share := 0.0
		if rootTotal > 0 {
			share = 100 * float64(lt.self) / float64(rootTotal)
		}
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %6.1f%%\n", lt.name, lt.count, ms(lt.total), ms(lt.self), share)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
