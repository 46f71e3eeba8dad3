package obs

// The JSONL tracer: a Sink that renders the event stream into
// hierarchical spans. One campaign span per campaign (declared when the
// campaign starts, closed with totals when it ends), one run span per
// completed job, and phase spans nested under their run (or standing
// alone for pipeline phases). The file is plain JSONL, one span record
// per line, appendable: a resumed campaign opened with OpenTrace(path,
// resume=true) appends its spans to the interrupted trace, so the file
// stays the single artifact of the whole logical campaign.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/sim"
)

// Span kinds and campaign lifecycle events as they appear in the JSONL.
const (
	SpanCampaign = "campaign"
	SpanRun      = "run"
	SpanPhase    = "phase"

	EventStart = "start"
	EventEnd   = "end"
)

// Span is the on-disk schema of one trace record. Producers fill the
// subset that applies to their span kind; ReadTrace and any JSONL
// consumer decode every line into this one shape.
type Span struct {
	Kind   string `json:"span"`
	Event  string `json:"event,omitempty"` // campaign lines: start | end
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`

	System   string `json:"system,omitempty"`
	Campaign string `json:"campaign,omitempty"`

	// Campaign-start fields.
	Start    string `json:"start,omitempty"` // RFC3339Nano wall clock
	Total    int    `json:"total,omitempty"`
	Restored int    `json:"restored,omitempty"`

	// Campaign-end fields.
	Runs int `json:"runs,omitempty"`
	Bugs int `json:"bugs,omitempty"`

	// Run fields.
	Run     *int   `json:"run,omitempty"` // job index; pointer so 0 survives
	Crash   string `json:"crash,omitempty"`
	Fault   string `json:"fault,omitempty"`
	Target  string `json:"target,omitempty"`
	Outcome string `json:"outcome,omitempty"`

	// Phase fields.
	Phase string `json:"phase,omitempty"`

	WallMS float64 `json:"wall_ms,omitempty"`
	SimMS  float64 `json:"sim_ms,omitempty"`
}

type pendingPhase struct {
	name string
	wall time.Duration
	sim  sim.Time
}

type openCampaign struct {
	id   uint64
	bugs int
}

type runKey struct {
	scope Scope
	run   int
}

// Tracer renders events into a JSONL trace. It is safe for concurrent
// use; spans are written when they complete (campaign spans are
// declared up front so children can reference them even if the process
// dies mid-campaign).
type Tracer struct {
	// Now supplies wall-clock timestamps; tests inject a fake clock to
	// keep golden traces deterministic. Defaults to time.Now.
	Now func() time.Time

	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	err     error
	nextID  uint64
	open    map[Scope]*openCampaign
	pending map[runKey][]pendingPhase
}

// NewTracer writes spans to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{
		Now:     time.Now,
		w:       bufio.NewWriter(w),
		open:    make(map[Scope]*openCampaign),
		pending: make(map[runKey][]pendingPhase),
	}
}

// OpenTrace opens (or creates) the JSONL trace file at path. With
// resume set the file is appended to — the spans of a resumed campaign
// extend the interrupted trace, after any torn trailing fragment (the
// artifact of a process killed mid-write) is newline-terminated so the
// appended spans stay on their own lines, exactly like the campaign
// checkpoint writer. Otherwise the file is truncated.
func OpenTrace(path string, resume bool) (*Tracer, error) {
	flag := os.O_CREATE | os.O_WRONLY
	if resume {
		// O_RDWR so the torn-tail check can inspect the last byte.
		flag = os.O_CREATE | os.O_RDWR | os.O_APPEND
	} else {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: cannot open trace %s: %w", path, err)
	}
	if resume {
		healTraceTail(f)
	}
	t := NewTracer(f)
	t.c = f
	return t, nil
}

// healTraceTail newline-terminates a torn trailing fragment so appended
// spans start on their own line. The fragment itself is skipped on read
// (ReadTrace's malformed-line skip), like a torn campaign checkpoint.
func healTraceTail(f *os.File) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil || last[0] == '\n' {
		return
	}
	f.Write([]byte{'\n'})
}

func (t *Tracer) write(ln Span) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(ln)
	if err != nil {
		t.err = err
		return
	}
	t.w.Write(b)
	t.w.WriteByte('\n')
}

func (t *Tracer) id() uint64 {
	t.nextID++
	return t.nextID
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func simMS(d sim.Time) float64 { return float64(d) / float64(sim.Millisecond) }

// Emit implements Sink.
func (t *Tracer) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case CampaignStart:
		oc := &openCampaign{id: t.id()}
		t.open[ev.Scope] = oc
		t.write(Span{
			Kind: SpanCampaign, Event: EventStart, ID: oc.id,
			System: ev.System, Campaign: ev.Campaign,
			Start: t.Now().Format(time.RFC3339Nano), Total: ev.Total, Restored: ev.Done,
		})
	case RunDone:
		parent := uint64(0)
		if oc := t.open[ev.Scope]; oc != nil {
			parent = oc.id
			oc.bugs = ev.Bugs
		}
		run := ev.Run
		rid := t.id()
		t.write(Span{
			Kind: SpanRun, ID: rid, Parent: parent,
			System: ev.System, Campaign: ev.Campaign, Run: &run,
			Crash: ev.Crash, Fault: ev.Fault, Target: ev.Target, Outcome: ev.Outcome,
			WallMS: ms(ev.Wall), SimMS: simMS(ev.Sim),
		})
		key := runKey{scope: ev.Scope, run: ev.Run}
		for _, ph := range t.pending[key] {
			t.write(Span{
				Kind: SpanPhase, ID: t.id(), Parent: rid,
				Phase: ph.name, WallMS: ms(ph.wall), SimMS: simMS(ph.sim),
			})
		}
		delete(t.pending, key)
	case PhaseEnd:
		if ev.Run >= 0 {
			// A phase inside a still-running job: buffer it until the
			// run span exists, so nesting is parent-correct.
			key := runKey{scope: ev.Scope, run: ev.Run}
			t.pending[key] = append(t.pending[key], pendingPhase{name: ev.Phase, wall: ev.Wall, sim: ev.Sim})
			return
		}
		// Top-level pipeline phase: stands alone under the root.
		t.write(Span{
			Kind: SpanPhase, ID: t.id(),
			System: ev.System, Campaign: ev.Campaign, Phase: ev.Phase,
			WallMS: ms(ev.Wall), SimMS: simMS(ev.Sim),
		})
	case CampaignEnd:
		oc := t.open[ev.Scope]
		if oc == nil {
			return
		}
		delete(t.open, ev.Scope)
		t.write(Span{
			Kind: SpanCampaign, Event: EventEnd, ID: oc.id,
			System: ev.System, Campaign: ev.Campaign,
			Runs: ev.Done, Bugs: oc.bugs, WallMS: ms(ev.Wall),
		})
		t.w.Flush()
	}
}

// Close flushes and closes the underlying file (when opened through
// OpenTrace) and reports any write error encountered along the way.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.c = nil
	}
	return t.err
}

// TraceStats summarizes one streaming pass over a trace.
type TraceStats struct {
	// Lines counts every line seen, including blank and malformed ones.
	Lines int
	// Spans counts the well-formed records delivered to the callback.
	Spans int
	// Malformed lists the line numbers skipped because they did not
	// decode — the torn tail of an interrupted session, hand-edit
	// damage. Blank lines are skipped silently and not counted here.
	Malformed []int
}

// scanTrace is the one line scanner under every trace consumer: big
// line buffer, blank-line skip, one JSON decode per line. Each
// non-blank line reaches fn with its decode error (nil for a
// well-formed span); fn returning a non-nil error stops the scan.
func scanTrace(r io.Reader, fn func(line int, s Span, decodeErr error) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ln Span
		err := decodeSpan(sc.Bytes(), &ln)
		if err := fn(lineNo, ln, err); err != nil {
			return lineNo, err
		}
	}
	if err := sc.Err(); err != nil {
		return lineNo, fmt.Errorf("trace: %w", err)
	}
	return lineNo, nil
}

// ReadTrace streams the spans of a JSONL trace to fn in file order.
// Malformed lines — the torn tail of an interrupted session, hand-edit
// damage — are skipped and reported in the stats, with the same
// semantics as campaign checkpoint loading; fn returning a non-nil
// error stops the read and surfaces that error.
func ReadTrace(r io.Reader, fn func(line int, s Span) error) (TraceStats, error) {
	var stats TraceStats
	lines, err := scanTrace(r, func(line int, s Span, decodeErr error) error {
		if decodeErr != nil {
			stats.Malformed = append(stats.Malformed, line)
			return nil
		}
		stats.Spans++
		return fn(line, s)
	})
	stats.Lines = lines
	return stats, err
}

// ValidateTrace structurally checks a JSONL trace: every line must
// decode, ids must be declared before use, run spans must hang off a
// declared campaign, nested phases off a declared run, and campaign-end
// records must close a declared campaign. A trace cut off mid-campaign
// (no end record) is valid — that is exactly the artifact an
// interrupted, resumable campaign leaves behind, even when the
// interrupt landed before the first run completed — and id reuse across
// appended sessions shadows the earlier declaration, mirroring how
// checkpoint resume appends to one file.
func ValidateTrace(r io.Reader) error {
	kinds := make(map[uint64]string) // id -> span kind
	open := make(map[uint64]bool)    // campaigns started but not ended
	runs := 0
	lines, err := scanTrace(r, func(lineNo int, ln Span, decodeErr error) error {
		if decodeErr != nil {
			return fmt.Errorf("trace line %d: bad JSON: %w", lineNo, decodeErr)
		}
		if ln.ID == 0 {
			return fmt.Errorf("trace line %d: missing id", lineNo)
		}
		if ln.WallMS < 0 || ln.SimMS < 0 {
			return fmt.Errorf("trace line %d: negative duration", lineNo)
		}
		switch ln.Kind {
		case SpanCampaign:
			switch ln.Event {
			case EventStart:
				kinds[ln.ID] = SpanCampaign
				open[ln.ID] = true
			case EventEnd:
				if kinds[ln.ID] != SpanCampaign {
					return fmt.Errorf("trace line %d: campaign end for undeclared id %d", lineNo, ln.ID)
				}
				delete(open, ln.ID)
			default:
				return fmt.Errorf("trace line %d: campaign record with event %q", lineNo, ln.Event)
			}
		case SpanRun:
			if ln.Run == nil {
				return fmt.Errorf("trace line %d: run span without run index", lineNo)
			}
			if ln.Parent != 0 && kinds[ln.Parent] != SpanCampaign {
				return fmt.Errorf("trace line %d: run parent %d is not a declared campaign", lineNo, ln.Parent)
			}
			kinds[ln.ID] = SpanRun
			runs++
		case SpanPhase:
			if ln.Phase == "" {
				return fmt.Errorf("trace line %d: phase span without phase name", lineNo)
			}
			if ln.Parent != 0 && kinds[ln.Parent] == "" {
				return fmt.Errorf("trace line %d: phase parent %d undeclared", lineNo, ln.Parent)
			}
			kinds[ln.ID] = SpanPhase
		default:
			return fmt.Errorf("trace line %d: unknown span kind %q", lineNo, ln.Kind)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("trace: empty")
	}
	// Zero completed runs is only legal for the interrupted artifact: a
	// campaign that declared itself and was cut off before its first
	// run completed. A trace whose campaigns all closed without a
	// single run recorded is structurally broken.
	if runs == 0 && len(open) == 0 {
		return fmt.Errorf("trace: no run spans")
	}
	return nil
}
