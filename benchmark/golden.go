package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// golden.json pins, at the golden seed, the output of every workload's
// op-list prefix: per system a sha256 over the canonical verdict lines
// of its ops plus the run and bug counts, and the seeded bugs the prefix
// witnesses. On any other seed the output check is structural only.
//
//go:embed golden.json
var goldenJSON []byte

type goldenWorkload struct {
	Blocks       int                    `json:"blocks"`
	DistinctBugs []string               `json:"distinct_bugs"`
	Groups       map[string]*groupCheck `json:"systems"`
}

type goldenFile struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*goldenWorkload `json:"workloads"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares the prefix groups with golden.json when the run
// used the golden seed. A mismatching group fails every op it holds.
func (m *measurement) checkGolden() {
	if m.seed != goldenSeed {
		return
	}
	g, err := loadGolden()
	if err != nil {
		m.fail(-1, "%v", err)
		return
	}
	want := g.Workloads[m.def.name]
	if g.Seed != goldenSeed || want == nil || want.Blocks != m.def.goldenBlocks {
		m.fail(-1, "golden.json does not cover %s at seed %d with %d blocks; run -update-golden", m.def.name, goldenSeed, m.def.goldenBlocks)
		return
	}
	names := make([]string, 0, len(want.Groups))
	for name := range want.Groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, got := want.Groups[name], m.groups[name]
		if got != nil && got.Sum == w.Sum && got.Runs == w.Runs && got.Bugs == w.Bugs && got.Ops == w.Ops {
			continue
		}
		for _, ordinal := range m.prefixOp[name] {
			m.fail(ordinal, "%s: verdicts of the golden prefix differ from golden.json", name)
		}
		if got == nil {
			m.fail(-1, "%s: golden group missing from the run", name)
		}
	}
	for name := range m.groups {
		if want.Groups[name] == nil {
			m.fail(-1, "%s: group not in golden.json; run -update-golden", name)
		}
	}
}

// writeGolden regenerates golden.json from smoke runs at the golden
// seed. It refuses to pin a run that failed its structural check.
func writeGolden() error {
	g := goldenFile{Seed: goldenSeed, Workloads: map[string]*goldenWorkload{}}
	for _, def := range workloads {
		m := measure(def, goldenSeed, 0, true, false)
		if m.failed > 0 {
			return fmt.Errorf("%s fails its structural check: %v", def.name, m.failures)
		}
		g.Workloads[def.name] = &goldenWorkload{Blocks: def.goldenBlocks, DistinctBugs: m.distinctBugs(), Groups: m.groups}
		fmt.Printf("%-22s %d blocks, %d ops, %d runs, %d bug runs, %d distinct bugs\n",
			def.name, m.blocks, m.attempted, m.runs, m.bugs, len(m.bugIDs))
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), "golden.json"), append(b, '\n'), 0o644)
}
