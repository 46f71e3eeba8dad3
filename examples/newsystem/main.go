// Newsystem: how to put your own distributed system under CrashTuner.
//
// The toy master/worker system (internal/systems/toysys) is the template:
// it shows the three things a system under test must provide —
//
//  1. an executable behaviour on the simulator (cluster.Runner/Run),
//  2. an IR model of its code (classes, fields, methods, logging
//     statements) whose instruction indexes match the probe calls, and
//  3. probe calls at every candidate crash-point site.
//
// — plus two optional but strongly recommended contracts:
//
//   - schedule every mid-run timer through the keyed API
//     (sim.AfterKeyed/EveryKeyed with handlers registered via
//     Node.Handle) and implement cluster.Cloneable, so injection
//     campaigns fork your runs from deep-copied engine clones instead
//     of replaying each prefix from t=0. Systems that skip this still
//     work — every injection run then takes the full run from t=0.
//
//   - implement cluster.Healer, so partition campaigns (-partition) can
//     re-admit nodes after a cut heals: Healed(isolated) should replay
//     your real reconnection protocol — re-registration, state reports,
//     work re-assignment — because resumed heartbeats alone never bring
//     back a node the liveness monitor already forgot. Feed the
//     split-brain/stale-read oracles through the gated Base helpers
//     (NoteSplitBrain, NoteStaleRead, NotePartitionLost); each is a
//     no-op unless a cut actually separates the two nodes, so crash
//     campaigns are unaffected. See toysys for the minimal version.
//
// This example runs the pipeline on it and walks through what each phase
// derived from the model, ending with the two seeded bugs found.
//
//	go run ./examples/newsystem
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/systems/toysys"
)

func main() {
	system := &toysys.Runner{Workers: 3}

	fmt.Println("Authoring checklist (see internal/systems/toysys):")
	fmt.Println("  1. implement cluster.Runner: Name, Workload, Hosts, Program, NewRun")
	fmt.Println("  2. model the code in IR; keep Pt* constants aligned with instruction indexes")
	fmt.Println("  3. call probe.PreRead/PostWrite at the matching sites, with runtime values")
	fmt.Println("  4. log meta-info the way real systems do — the analysis only sees your logs")
	fmt.Println("  5. schedule mid-run timers with AfterKeyed/EveryKeyed and implement")
	fmt.Println("     cluster.Cloneable, so campaigns fork clones instead of replaying prefixes")
	fmt.Println("  6. implement cluster.Healer (re-register isolated nodes after a cut heals)")
	fmt.Println("     and report oracle evidence via NoteSplitBrain/NoteStaleRead, so")
	fmt.Println("     -partition campaigns can cut your nodes and judge the reconnect")
	fmt.Println()

	// The model is analyzable on its own.
	p := system.Program()
	if errs := p.Validate(); len(errs) != 0 {
		fmt.Printf("model errors: %v\n", errs)
		return
	}
	c := p.Census()
	fmt.Printf("model: %d types, %d fields, %d access points\n", c.Types, c.Fields, c.AccessPoints)

	res := core.Run(system, core.Options{Seed: 7, Scale: 1})
	fmt.Printf("meta-info types: ")
	for _, ti := range res.Analysis.MetaTypes() {
		fmt.Printf("%s ", ti.Type)
	}
	fmt.Printf("\nstatic crash points: %d, dynamic: %d\n",
		len(res.Static.Points), len(res.Dynamic.Points))

	fmt.Println("\ncampaign:")
	for _, rep := range res.Reports {
		fmt.Printf("  %-14s %-34s witnesses=%v\n", rep.Outcome, rep.Dyn.Point, rep.Witnesses)
	}
	fmt.Printf("\nfound: %v (expected [%s %s])\n",
		res.Summary.WitnessedBugs, toysys.BugPreRead, toysys.BugPostWrite)
}
