package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"
)

// op is one timed operation of a workload. run executes it and returns
// what the output check keeps; with a non-nil recorder it runs the op's
// decomposition into layer calls instead of the op itself.
type op struct {
	name string
	run  func(tr *spans) ([]verdicts, error)
}

// workload generates blocks of ops from the seed it was built with.
// Every block holds the same mix of ops (all seven systems, every
// variant) under its own op seed, so blocks compare. block(b) first
// builds whatever untimed state block b needs; building block 0 is part
// of set-up.
type workload interface {
	block(b int) []op
}

// opSeed is the op seed of block b: a splitmix64 hash of the run's seed
// and b, cut to 31 bits. The seeds are spread out instead of counted up
// because the first draws of a math/rand source vary smoothly with its
// seed, and the baselines draw their injection time first: with op
// seeds seed, seed+1, ... neighbouring blocks, and runs on neighbouring
// seeds, share their injection times, and what a run costs and finds
// drifts with --seed. Spread out, every run is an even sample.
func opSeed(seed int64, b int) int64 {
	z := uint64(seed) + uint64(b+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 33)
}

// workloadDef describes one workload of BENCHMARK.json.
type workloadDef struct {
	name string
	// scale is the workload size the layer ledger of a traced run
	// measures at: the scale this workload's ops mostly run at.
	scale int
	// goldenBlocks is the prefix of the op list whose verdicts
	// golden.json pins at the golden seed; every run executes at least
	// that many blocks, a smoke run exactly that many.
	goldenBlocks int
	// setupReps is how many times set-up (construct, build block 0) runs
	// before timing starts; setup_s is the median.
	setupReps int
	build     func(seed int64) workload
}

var workloads = []workloadDef{
	pipelineColdDef,
	campaignFamiliesDef,
	baselineInjectionDef,
	fleetTriageAnalyzeDef,
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// groupCheck accumulates the golden group (a system) of the op-list
// prefix: a running hash of the verdict lines plus the counts.
type groupCheck struct {
	h    hash.Hash
	Ops  int    `json:"ops"`
	Runs int    `json:"runs"`
	Bugs int    `json:"bugs"`
	Sum  string `json:"sha256"`
}

// measurement is everything one run of a workload observed.
type measurement struct {
	def    workloadDef
	seed   int64
	blocks int

	setup []float64 // seconds, one per set-up repetition

	opNS      []float64 // wall per timed op (untraced ops only)
	blockRate []float64 // ops per second, one per block
	allocMB   float64   // bytes allocated by timed ops, in MB

	// Traced runs only: the same ops as decompositions, paired with the
	// untraced walls above, and their spans.
	tracedNS []float64
	tr       *spans

	attempted int
	failed    int
	failures  []string // first few failure reasons

	groups   map[string]*groupCheck // golden prefix, by system
	prefixOp map[string][]int       // golden prefix: op ordinals by group
	failedOp map[int]bool
	bugIDs   map[string]bool
	runs     int
	bugs     int

	// blockBugs is, per block, how many distinct seeded bugs its
	// bug-outcome runs witnessed.
	blockBugs []float64
	inBlock   map[string]bool
}

func (m *measurement) fail(op int, format string, args ...any) {
	if m.failedOp[op] {
		return
	}
	m.failedOp[op] = true
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// execute runs one op, turning a panic into an error: a panicking op is
// a failed op, not a failed benchmark.
func execute(o op, tr *spans) (out []verdicts, d time.Duration, err error) {
	start := time.Now()
	defer func() {
		d = time.Since(start)
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	out, err = o.run(tr)
	return
}

// check applies the structural output check to one finished op and, in
// the golden prefix, folds its verdicts into the groups.
func (m *measurement) check(ordinal int, o op, out []verdicts, err error, inPrefix bool) {
	if err != nil {
		m.fail(ordinal, "%s: %v", o.name, err)
		return
	}
	runs := 0
	for _, v := range out {
		runs += v.runs
		m.runs += v.runs
		m.bugs += v.bugs
		for _, w := range v.witnesses {
			m.bugIDs[w] = true
			m.inBlock[w] = true
		}
		if v.harness > 0 {
			m.fail(ordinal, "%s: %d harness errors", o.name, v.harness)
		}
		if inPrefix {
			g := m.groups[v.group]
			if g == nil {
				g = &groupCheck{h: sha256.New()}
				m.groups[v.group] = g
			}
			g.Ops++
			g.Runs += v.runs
			g.Bugs += v.bugs
			for _, ln := range v.lines {
				io.WriteString(g.h, ln)
				g.h.Write([]byte{'\n'})
			}
			m.prefixOp[v.group] = append(m.prefixOp[v.group], ordinal)
		}
	}
	if runs == 0 {
		m.fail(ordinal, "%s: no reports", o.name)
	}
}

func sameLines(a, b []verdicts) bool {
	return slices.EqualFunc(a, b, func(x, y verdicts) bool {
		return x.group == y.group && slices.Equal(x.lines, y.lines)
	})
}

// measure runs one workload: set-up setupReps times, then whole blocks
// of ops until the timed ops add up to the budget (smoke: exactly the
// golden prefix). In a traced run every block runs twice on freshly
// built state, first as the ops themselves and then as their
// decompositions, so the two walls pair op by op.
func measure(def workloadDef, seed int64, budget time.Duration, smoke, traced bool) *measurement {
	m := &measurement{
		def: def, seed: seed,
		groups: map[string]*groupCheck{}, prefixOp: map[string][]int{},
		failedOp: map[int]bool{}, bugIDs: map[string]bool{},
	}
	if traced {
		m.tr = newSpans()
	}

	var w workload
	var ops []op
	reps := def.setupReps
	if smoke {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		start := time.Now()
		w = def.build(seed)
		ops = w.block(0)
		m.setup = append(m.setup, time.Since(start).Seconds())
	}

	var before, after runtime.MemStats
	var timed time.Duration
	ordinal := 0
	for b := 0; ; b++ {
		if b > 0 {
			ops = w.block(b)
		}
		inPrefix := b < def.goldenBlocks
		first := ordinal
		outs := make([][]verdicts, len(ops))

		m.inBlock = map[string]bool{}
		runtime.ReadMemStats(&before)
		var blockWall time.Duration
		for i, o := range ops {
			out, d, err := execute(o, nil)
			blockWall += d
			m.opNS = append(m.opNS, float64(d))
			m.attempted++
			m.check(first+i, o, out, err, inPrefix)
			outs[i] = out
		}
		runtime.ReadMemStats(&after)
		m.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		m.blockRate = append(m.blockRate, float64(len(ops))/blockWall.Seconds())
		m.blockBugs = append(m.blockBugs, float64(len(m.inBlock)))
		timed += blockWall
		ordinal += len(ops)

		if traced {
			for i, o := range w.block(b) {
				m.tr.nextOp()
				out, d, err := execute(o, m.tr)
				timed += d
				m.tracedNS = append(m.tracedNS, float64(d))
				switch {
				case err != nil:
					m.fail(first+i, "%s (decomposed): %v", o.name, err)
				case !sameLines(out, outs[i]):
					m.fail(first+i, "%s: decomposed op's verdicts differ from the op's", o.name)
				}
			}
		}

		m.blocks = b + 1
		if m.blocks < def.goldenBlocks {
			continue
		}
		if smoke || timed >= budget {
			break
		}
	}
	for _, g := range m.groups {
		g.Sum = hex.EncodeToString(g.h.Sum(nil))
	}
	return m
}

// distinctBugs lists the seeded-bug ids witnessed on bug-outcome runs.
func (m *measurement) distinctBugs() []string {
	out := make([]string, 0, len(m.bugIDs))
	for id := range m.bugIDs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
