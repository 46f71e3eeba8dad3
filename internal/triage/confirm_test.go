package triage

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

// collectSink captures events for assertions.
type collectSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *collectSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

func confirmFixture(t *testing.T) *Cluster {
	t.Helper()
	ix := NewIndex()
	for seed := int64(0); seed < 3; seed++ {
		ix.Add(testRecord("toysys", seed, int(seed)))
	}
	clusters := ix.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("fixture built %d clusters, want 1", len(clusters))
	}
	return clusters[0]
}

// reproducing returns an Execute that reproduces the representative's
// signature when hit is true and an innocuous passing record otherwise.
func reproducing(hit bool) Execute {
	return func(rec Record) Record {
		out := rec
		out.Campaign = "triage"
		out.Run = 0
		if !hit {
			out.Outcome = "ok"
			out.Exceptions = nil
		}
		out.Sig = out.Signature().Key()
		return out
	}
}

func TestConfirmLabels(t *testing.T) {
	c := confirmFixture(t)
	cases := []struct {
		name string
		hit  bool
		want Label
		repr int
	}{
		{"deterministic", true, Confirmed, 1},
		{"never", false, Unreproduced, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conf := Confirm(c, nil, reproducing(tc.hit))
			if conf.Label != tc.want || conf.Reproduced != tc.repr || conf.Runs != 1 {
				t.Fatalf("Confirm = %+v, want label %s with %d/1 reproduced", conf, tc.want, tc.repr)
			}
			if conf.Sig != c.Sig.Key() {
				t.Fatalf("confirmation bound to %q, want cluster signature %q", conf.Sig, c.Sig.Key())
			}
		})
	}
}

// TestConfirmNearMatchCounts: a replay whose deep stack differs but
// shares the bounded prefix still counts as a reproduction.
func TestConfirmNearMatchCounts(t *testing.T) {
	c := confirmFixture(t)
	exec := func(rec Record) Record {
		out := rec
		out.Stack = "toy.Master.commitPending<toy.Master.onTaskDone<other.tail"
		out.Sig = out.Signature().Key()
		return out
	}
	conf := Confirm(c, nil, exec)
	if conf.Label != Confirmed || conf.Reproduced != 1 {
		t.Fatalf("near-match replay not counted: %+v", conf)
	}
}

// TestConfirmEmitsTriageCampaign: the replay runs as a one-job campaign
// under Campaign "triage", visible to any attached sink (and so to
// traces).
func TestConfirmEmitsTriageCampaign(t *testing.T) {
	c := confirmFixture(t)
	sink := &collectSink{}
	Confirm(c, sink, reproducing(true))
	starts, runs, ends := 0, 0, 0
	for _, ev := range sink.evs {
		if ev.Campaign != "triage" || ev.System != "toysys" {
			t.Fatalf("event outside the triage scope: %+v", ev)
		}
		switch ev.Kind {
		case obs.CampaignStart:
			starts++
		case obs.RunDone:
			runs++
			if ev.Crash != c.Sig.Point {
				t.Fatalf("RunDone crash = %q, want representative point %q", ev.Crash, c.Sig.Point)
			}
		case obs.CampaignEnd:
			ends++
			if ev.Bugs != 1 {
				t.Fatalf("CampaignEnd bugs = %d, want 1 reproduction", ev.Bugs)
			}
		}
	}
	if starts != 1 || runs != 1 || ends != 1 {
		t.Fatalf("campaign lifecycle = %d/%d/%d (start/run/end), want 1/1/1", starts, runs, ends)
	}
}

// TestConfirmLegacyFlakyVerdictLoads: stores written while confirmation
// took a majority vote over five attempts hold FLAKY verdicts. They
// still load onto their cluster and render in the cluster table exactly
// as before.
func TestConfirmLegacyFlakyVerdictLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		if err := s.Append(testRecord("toysys", seed, int(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const legacy = `{"kind":"confirm","confirm":{"sig":"toysys|toy.Master.commitPending#0|pre-read|shutdown|job-failure|NullPointerException@toy.Master.commitPending|66c33a0214b0cdea","label":"FLAKY","runs":5,"reproduced":2}}` + "\n"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(legacy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	clusters := ix.Clusters()
	if len(clusters) != 1 || clusters[0].Confirm == nil {
		t.Fatalf("legacy verdict did not land on its cluster: %+v", clusters)
	}
	if got, want := *clusters[0].Confirm, (Confirmation{Sig: clusters[0].Sig.Key(), Label: "FLAKY", Runs: 5, Reproduced: 2}); got != want {
		t.Fatalf("legacy verdict = %+v, want %+v", got, want)
	}
	const table = "CLUSTER       LABEL  RECORDS  SEEDS  SYSTEM  CAMPAIGNS  POINT                       FAULT     OUTCOME      EXCEPTION\n" +
		"bug-ee38c3ca  FLAKY  3        3      toysys  test       toy.Master.commitPending#0  shutdown  job-failure  NullPointerException@toy.Master.commitPending\n"
	if got := ClusterTable(clusters); got != table {
		t.Fatalf("cluster table changed:\n--- got\n%s--- want\n%s", got, table)
	}
}
