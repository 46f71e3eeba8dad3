// The exception differential oracle: the engine keeps the first
// occurrence of each (signature, handled) pair, and the exception oracle
// and the baseline census must read the same from that list as from the
// full occurrence stream. This lives in the external test package
// because it drives whole campaigns through core and trigger, which
// import sim, while export_test.go's throw observer is visible only to
// this package's tests.
package sim_test

import (
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// oracleScale reads the CT_ORACLE_SCALE override (nightly CI runs the
// differential oracles at a larger cluster scale), or 0 when unset.
func oracleScale(t *testing.T) int {
	t.Helper()
	s := os.Getenv("CT_ORACLE_SCALE")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("CT_ORACLE_SCALE=%q: want a positive integer", s)
	}
	return n
}

// throwLog holds, per engine, every exception thrown on it, repeats
// included.
type throwLog struct {
	mu   sync.Mutex
	full map[*sim.Engine][]sim.Exception
}

// observe records every Throw until the returned function is called.
func (l *throwLog) observe() (stop func()) {
	l.full = make(map[*sim.Engine][]sim.Exception)
	return sim.ObserveThrows(func(e *sim.Engine, ex sim.Exception) {
		l.mu.Lock()
		l.full[e] = append(l.full[e], ex)
		l.mu.Unlock()
	})
}

// census is the set trigger.Baseline's census holds after folding in
// exceptions: the normalized form of every signature, handled or not.
func census(exceptions []sim.Exception) map[string]bool {
	out := make(map[string]bool)
	for _, ex := range exceptions {
		out[triage.NormalizeException(ex.Signature)] = true
	}
	return out
}

// diffRuns checks every engine l saw: the oracle's new unhandled
// signatures against b, and the census, must agree between the full
// occurrence list and the engine's deduplicated one. It returns how
// many engines saw a repeat dropped.
func (l *throwLog) diffRuns(t *testing.T, name string, b trigger.Baseline) (deduped int) {
	t.Helper()
	for e, full := range l.full {
		kept := e.Exceptions()
		if len(kept) < len(full) {
			deduped++
		}
		if got, want := trigger.NewUnhandledSignatures(b, kept), trigger.NewUnhandledSignatures(b, full); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: new unhandled over the deduplicated list %v, over every occurrence %v", name, got, want)
		}
		if got, want := census(kept), census(full); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: census over the deduplicated list %v, over every occurrence %v", name, got, want)
		}
	}
	return deduped
}

// TestExceptionDedupMatchesEveryOccurrence: on seven systems × crash,
// recovery (RestartDelay 1 s) and partition campaigns at seeds
// {11, 1009} and scales {1, 4} (plus CT_ORACLE_SCALE), every run's oracle verdict and census are the
// same over the engine's first-occurrence list as over every exception
// thrown. Every run is driven whole from t = 0, so each engine's list
// holds only its own throws. The baseline's census is checked against
// the full streams of the runs that built it.
func TestExceptionDedupMatchesEveryOccurrence(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns on all systems")
	}
	scales := []int{1, 4}
	if s := oracleScale(t); s != 0 && s != 1 && s != 4 {
		scales = append(scales, s)
	}
	families := []struct {
		name      string
		recovery  *trigger.RecoveryOptions
		partition *trigger.PartitionOptions
	}{
		{"crash", nil, nil},
		{"recovery", &trigger.RecoveryOptions{RestartDelay: sim.Second}, nil},
		{"partition", nil, &trigger.PartitionOptions{}},
	}
	var log throwLog
	runs, deduped := 0, 0
	for _, r := range append(all.Runners(), all.Extensions()...) {
		for _, seed := range []int64{11, 1009} {
			for _, scale := range scales {
				opts := core.Options{Seed: seed, Scale: scale}
				res, matcher := core.AnalysisPhase(r, opts)
				core.ProfilePhase(r, res, opts)
				name := r.Name() + " seed " + strconv.FormatInt(seed, 10) + " scale " + strconv.Itoa(scale)

				stop := log.observe()
				b := trigger.MeasureBaseline(r, opts.Seed, scale, 3, 0)
				stop()
				var every []sim.Exception
				for _, full := range log.full {
					every = append(every, full...)
				}
				if want := census(every); !reflect.DeepEqual(b.Exceptions, want) {
					t.Errorf("%s: baseline census %v, over every occurrence %v", name, b.Exceptions, want)
				}
				deduped += log.diffRuns(t, name+" baseline", b)

				for _, fam := range families {
					tester := &trigger.Tester{
						Config:    campaign.Config{Workers: 1},
						Runner:    r,
						Analysis:  res.Analysis,
						Matcher:   matcher,
						Baseline:  b,
						Seed:      opts.Seed,
						Scale:     scale,
						Recovery:  fam.recovery,
						Partition: fam.partition,
					}
					stop := log.observe()
					tester.Campaign(res.Dynamic.Points)
					stop()
					runs += len(log.full)
					deduped += log.diffRuns(t, name+" "+fam.name, b)
				}
			}
		}
	}
	t.Logf("census: %d campaign runs threw, %d runs (baseline included) dropped a repeat", runs, deduped)
	if deduped == 0 {
		t.Error("no run threw a repeat: the oracle compared nothing the dedup changes")
	}
}

// TestHandledThenUnhandledKeepsBoth: a signature first thrown handled
// and later unhandled is two pairs. Deduplicating on the signature alone
// would keep only the handled one and hide the bug from the oracle.
func TestHandledThenUnhandledKeepsBoth(t *testing.T) {
	e := sim.NewEngine(1)
	n := e.AddNode("n", 1)
	e.Throw(n.ID, "IOException@read", "retried", true)
	e.Throw(n.ID, "IOException@read", "gave up", false)
	e.Throw(n.ID, "IOException@read", "retried again", true)
	b := trigger.Baseline{Exceptions: map[string]bool{}, Status: cluster.Succeeded}
	if got := trigger.NewUnhandledSignatures(b, e.Exceptions()); !reflect.DeepEqual(got, []string{"IOException@read"}) {
		t.Errorf("new unhandled = %v, want [IOException@read]", got)
	}
	if got := e.Exceptions(); len(got) != 2 || !got[0].Handled || got[1].Handled {
		t.Errorf("exceptions = %+v, want the handled pair then the unhandled one", got)
	}
}
