// Command cttriage manages the persistent bug-triage store: the
// append-only JSONL files the campaigns' recorders write one record per
// failing run into. It clusters records into distinct bugs by canonical
// signature, diffs store snapshots for newly surfaced bugs, and
// replays cluster representatives to confirm that each still
// reproduces.
//
// Usage:
//
//	cttriage list -store triage.jsonl                 # ranked cluster table
//	cttriage show -store triage.jsonl -cluster bug-xxxxxxxx
//	cttriage ingest -store triage.jsonl other.jsonl...  # merge store files
//	cttriage confirm -store triage.jsonl              # replay representatives
//	cttriage diff -store triage.jsonl -against old.jsonl [-fail-on-new]
//
// A suppression file (-suppress) lists cluster ids or signature keys to
// hide, one per line, '#' comments allowed — the triage analogue of a
// known-issues list.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/systems/all"
	"repro/internal/triage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "confirm":
		err = cmdConfirm(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cttriage: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cttriage:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cttriage <list|show|ingest|confirm|diff> [flags]

  list    -store f [-suppress f]                render the ranked cluster table
  show    -store f -cluster bug-xxxxxxxx        one cluster in detail
  ingest  -store f [files...]                   merge store files into -store
  confirm -store f [-cluster id] [-seed N] [-scale N] [-trace f]
          [-suppress f]                         replay representatives once
  diff    -store f -against f [-suppress f] [-fail-on-new]  new clusters only`)
}

// loadClusters loads one or more store files and applies the optional
// suppression list to the ranked clusters.
func loadClusters(suppress string, paths ...string) (*triage.Index, []*triage.Cluster, int, error) {
	ix, err := triage.Load(paths...)
	if err != nil {
		return nil, nil, 0, err
	}
	clusters := ix.Clusters()
	dropped := 0
	if suppress != "" {
		sup, err := triage.LoadSuppressions(suppress)
		if err != nil {
			return nil, nil, 0, err
		}
		clusters, dropped = sup.Filter(clusters)
	}
	return ix, clusters, dropped, nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	store := fs.String("store", "triage.jsonl", "triage store file")
	suppress := fs.String("suppress", "", "suppression file (cluster ids or signature keys, one per line)")
	fs.Parse(args)

	ix, clusters, dropped, err := loadClusters(*suppress, *store)
	if err != nil {
		return err
	}
	fmt.Print(triage.ClusterTable(clusters))
	fmt.Printf("\n%d records, %d distinct bugs", ix.Len(), len(clusters))
	if dropped > 0 {
		fmt.Printf(" (%d suppressed)", dropped)
	}
	fmt.Println()
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	store := fs.String("store", "triage.jsonl", "triage store file")
	cluster := fs.String("cluster", "", "cluster id (bug-xxxxxxxx) or signature key")
	fs.Parse(args)
	if *cluster == "" {
		return fmt.Errorf("show: -cluster is required")
	}

	_, clusters, _, err := loadClusters("", *store)
	if err != nil {
		return err
	}
	for _, c := range clusters {
		if !matchesCluster(c, *cluster) {
			continue
		}
		printCluster(c)
		return nil
	}
	return fmt.Errorf("show: no cluster %q in %s", *cluster, *store)
}

func matchesCluster(c *triage.Cluster, id string) bool {
	if c.ID() == id {
		return true
	}
	for _, k := range c.Keys {
		if k == id {
			return true
		}
	}
	return false
}

func printCluster(c *triage.Cluster) {
	fmt.Printf("%s  %s\n", c.ID(), c.Label())
	fmt.Printf("  system:    %s\n", orDash(c.Sig.System))
	fmt.Printf("  point:     %s\n", orDash(c.Sig.Point))
	fmt.Printf("  scenario:  %s\n", orDash(c.Sig.Scenario))
	fmt.Printf("  fault:     %s\n", orDash(c.Sig.Fault))
	fmt.Printf("  outcome:   %s\n", c.Sig.Outcome)
	fmt.Printf("  exception: %s\n", orDash(c.Sig.Exception))
	fmt.Printf("  stack:     %s\n", orDash(c.Sig.StackHash))
	if conf := c.Confirm; conf != nil {
		fmt.Printf("  confirmed: %s (%d/%d attempts reproduced)\n", conf.Label, conf.Reproduced, conf.Runs)
	}
	fmt.Printf("  merged signature keys: %d\n", len(c.Keys))
	for _, k := range c.Keys {
		fmt.Printf("    %s\n", k)
	}
	fmt.Printf("  records: %d across %d seeds\n", len(c.Records), c.DistinctSeeds())
	for _, r := range c.Records {
		fmt.Printf("    %s/%s run %d seed %d: %s", r.System, r.Campaign, r.Run, r.Seed, r.Outcome)
		if len(r.Witnesses) > 0 {
			fmt.Printf(" bugs=%v", r.Witnesses)
		}
		if len(r.Exceptions) > 0 {
			fmt.Printf(" %s", r.Exceptions[0])
		}
		fmt.Println()
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	store := fs.String("store", "triage.jsonl", "destination triage store file")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("ingest: no source files given")
	}

	// Current view of the destination, for dedup. A missing destination
	// is an empty store, not an error.
	dst := triage.NewIndex()
	if _, err := os.Stat(*store); err == nil {
		if err := dst.LoadFile(*store); err != nil {
			return err
		}
	}
	s, err := triage.OpenStore(*store)
	if err != nil {
		return err
	}
	defer s.Close()

	added, dups := 0, 0
	for _, f := range files {
		src := triage.NewIndex()
		if err := src.LoadFile(f); err != nil {
			return err
		}
		for _, rec := range src.Records() {
			if !dst.Add(rec) {
				dups++
				continue
			}
			if err := s.Append(rec); err != nil {
				return err
			}
			added++
		}
		for _, conf := range src.Confirmations() {
			if cur, ok := dst.Confirmation(conf.Sig); ok && cur == conf {
				continue
			}
			dst.AddConfirmation(conf)
			if err := s.AppendConfirmation(conf); err != nil {
				return err
			}
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Printf("ingested %d new records (%d duplicates dropped) from %d files; store has %d records, %d distinct bugs\n",
		added, dups, len(files), dst.Len(), dst.DistinctBugs())
	return nil
}

func cmdConfirm(args []string) error {
	fs := flag.NewFlagSet("confirm", flag.ExitOnError)
	store := fs.String("store", "triage.jsonl", "triage store file")
	cluster := fs.String("cluster", "", "confirm only this cluster id (default: every cluster)")
	seed := fs.Int64("seed", 11, "seed for the executor's analysis phase and baseline")
	scale := fs.Int("scale", 1, "workload scale fallback for records without one")
	suppress := fs.String("suppress", "", "suppression file; suppressed clusters are not confirmed")
	var fl cliflags.Flags
	fl.RegisterObs(fs)
	fs.Parse(args)

	_, clusters, _, err := loadClusters(*suppress, *store)
	if err != nil {
		return err
	}
	rt, err := fl.Open()
	if err != nil {
		return err
	}
	defer rt.Close()
	sink := rt.Config.Sink
	s, err := triage.OpenStore(*store)
	if err != nil {
		return err
	}
	defer s.Close()

	// One executor per system: the analysis artifacts and the fault-free
	// baseline are shared by every cluster of that system.
	executors := map[string]triage.Execute{}
	confirmed := 0
	for _, c := range clusters {
		if *cluster != "" && !matchesCluster(c, *cluster) {
			continue
		}
		rep := c.Representative()
		if rep.Point == "" {
			fmt.Printf("%s  skipped: no re-executable representative (baseline-only records)\n", c.ID())
			continue
		}
		exec := executors[rep.System]
		if exec == nil {
			r, err := all.ByName(rep.System)
			if err != nil {
				fmt.Printf("%s  skipped: %v\n", c.ID(), err)
				continue
			}
			exec = core.NewConfirmExecutor(r, core.SharedArtifacts, core.Options{Seed: *seed, Scale: *scale})
			executors[rep.System] = exec
		}
		conf := triage.Confirm(c, sink, exec)
		if err := s.AppendConfirmation(conf); err != nil {
			return err
		}
		confirmed++
		fmt.Printf("%s  %s\n", c.ID(), conf.Label)
	}
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Printf("confirmed %d clusters\n", confirmed)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	store := fs.String("store", "triage.jsonl", "current triage store file")
	against := fs.String("against", "", "prior store snapshot to diff against")
	suppress := fs.String("suppress", "", "suppression file applied to the new clusters")
	failOnNew := fs.Bool("fail-on-new", false, "exit 1 when new clusters surfaced (for CI gates)")
	fs.Parse(args)
	if *against == "" {
		return fmt.Errorf("diff: -against is required")
	}

	_, cur, _, err := loadClusters("", *store)
	if err != nil {
		return err
	}
	_, prior, _, err := loadClusters("", *against)
	if err != nil {
		return err
	}
	fresh := triage.Diff(cur, prior)
	dropped := 0
	if *suppress != "" {
		sup, err := triage.LoadSuppressions(*suppress)
		if err != nil {
			return err
		}
		fresh, dropped = sup.Filter(fresh)
	}
	if len(fresh) > 0 {
		fmt.Print(triage.ClusterTable(fresh))
	}
	fmt.Printf("%d new clusters", len(fresh))
	if dropped > 0 {
		fmt.Printf(" (%d suppressed)", dropped)
	}
	fmt.Println()
	if *failOnNew && len(fresh) > 0 {
		os.Exit(1)
	}
	return nil
}
