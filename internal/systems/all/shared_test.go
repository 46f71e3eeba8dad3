package all

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/systems/cluster"
	"repro/internal/systems/yarn"
	"repro/internal/trigger"
)

// programDump renders everything a model declares and Build assigns, one
// line per class, field, method and instruction, so two dumps compare
// equal exactly when the programs are deep-equal.
func programDump(p *ir.Program) []string {
	var out []string
	for _, c := range p.Classes() {
		out = append(out, fmt.Sprintf("class %s super=%s interfaces=%v collection=%v", c.Name, c.Super, c.Interfaces, c.Collection))
		for _, f := range c.Fields {
			out = append(out, fmt.Sprintf("  field %+v", *f))
		}
		for _, m := range c.Methods {
			out = append(out, fmt.Sprintf("  method %s owner=%s ctor=%v public=%v", m.Name, m.Owner, m.Ctor, m.Public))
			for _, ins := range m.Instrs {
				flat := *ins
				flat.Log = nil
				line := fmt.Sprintf("    instr %+v", flat)
				if ins.Log != nil {
					line += fmt.Sprintf(" log=%+v", *ins.Log)
				}
				out = append(out, line)
			}
		}
	}
	return out
}

func requireSameDump(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: line %d is\n%s\nwant\n%s", what, i, strings.TrimSpace(got[i]), strings.TrimSpace(want[i]))
			return
		}
	}
}

// The program a runner of this package hands out is shared by every
// caller in the process, so nothing may write to it: a full pipeline
// over eight workers, a recovery, a partition and a guided campaign
// leave it exactly as built. Run under -race, this also shows that the
// concurrent readers do not race with each other.
func TestSharedProgramIsReadOnly(t *testing.T) {
	for _, r := range systems {
		before := programDump(r.Program())
		campaigns := []struct {
			name string
			opts core.Options
		}{
			{"crash", core.Options{}},
			{"recovery", core.Options{Recovery: &trigger.RecoveryOptions{}}},
			{"partition", core.Options{Partition: &trigger.PartitionOptions{}}},
			{"guided", core.Options{Partition: &trigger.PartitionOptions{Guided: true}}},
		}
		for _, c := range campaigns {
			c.opts.Config = campaign.Config{Workers: 8}
			c.opts.Seed = 11
			if res := core.Run(r, c.opts); res.Summary.Tested == 0 {
				t.Errorf("%s/%s: no point tested", r.Name(), c.name)
			}
			requireSameDump(t, r.Name()+" after "+c.name, programDump(r.Program()), before)
		}
	}
}

func TestRunnersShareOneProgramPerSystem(t *testing.T) {
	for _, r := range systems {
		a, err := ByName(r.Name())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := ByName(r.Name())
		if a.Program() != b.Program() || a.Program() != r.Program() {
			t.Errorf("%s: ByName handed out two programs", r.Name())
		}
	}
	for i, r := range append(Runners(), Extensions()...) {
		if r.Program() != systems[i].Program() {
			t.Errorf("%s: Runners/Extensions handed out another program", r.Name())
		}
	}
	// A system's own runner keeps building its model per call; the shared
	// program is one such build.
	shared, _ := ByName("yarn")
	direct := &yarn.Runner{}
	if direct.Program() == shared.Program() || direct.Program() == direct.Program() {
		t.Error("a directly constructed yarn runner returned a shared program")
	}
	requireSameDump(t, "direct yarn program", programDump(direct.Program()), programDump(shared.Program()))
}

// countingRunner counts how often the model underneath is built.
type countingRunner struct {
	cluster.Runner
	builds atomic.Int32
}

func (c *countingRunner) Program() *ir.Program {
	c.builds.Add(1)
	return c.Runner.Program()
}

func TestSharedProgramBuiltOnceUnderContention(t *testing.T) {
	inner := &countingRunner{Runner: &yarn.Runner{}}
	s := &shared{Runner: inner}
	if s.Name() != "yarn" || inner.builds.Load() != 0 {
		t.Fatal("the program was built before anyone asked for it")
	}
	programs := make([]*ir.Program, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range programs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			programs[i] = s.Program()
		}(i)
	}
	close(start)
	wg.Wait()
	for _, p := range programs {
		if p == nil || p != programs[0] {
			t.Fatal("concurrent callers got different programs")
		}
	}
	if n := inner.builds.Load(); n != 1 {
		t.Errorf("model built %d times, want 1", n)
	}
}
