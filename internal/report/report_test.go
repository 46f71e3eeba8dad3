package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/systems/all"
)

func TestStaticTables(t *testing.T) {
	for name, s := range map[string]string{
		"table1":  Table1(),
		"table3":  Table3(),
		"table4":  Table4(),
		"table6":  Table6(),
		"table13": Table13(),
		"repro":   ReproSummary(),
	} {
		if len(s) < 50 {
			t.Errorf("%s suspiciously short: %q", name, s)
		}
	}
	if !strings.Contains(Table1(), "YARN-5918") || !strings.Contains(Table1(), "HBASE-2525") {
		t.Error("Table 1 missing studied bugs")
	}
	if !strings.Contains(Table3(), "copyInto") {
		t.Error("Table 3 missing keywords")
	}
	if !strings.Contains(Table4(), "WordCount+curl") {
		t.Error("Table 4 missing workloads")
	}
	if !strings.Contains(Table13(), "#53647") {
		t.Error("Table 13 missing PRs")
	}
	if !strings.Contains(ReproSummary(), "59/66") {
		t.Errorf("repro summary wrong: %s", ReproSummary())
	}
}

func TestTable2FromYarn(t *testing.T) {
	r, err := all.ByName("yarn")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := core.AnalysisPhase(r, core.Options{Seed: 11})
	s := Table2(res.Analysis)
	if !strings.Contains(s, "yarn.api.records.NodeId*") {
		t.Errorf("Table 2 missing log-annotated NodeId:\n%s", s)
	}
	if !strings.Contains(s, "NodeIdPBImpl") {
		t.Errorf("Table 2 missing derived subtype:\n%s", s)
	}
}

func TestExperimentTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	x := NewExperiments(11, 1, 30)
	x.RunPipelines()
	x.RunBaselines()

	for name, s := range map[string]string{
		"table5":   x.Table5Live(),
		"table7":   x.Table7(),
		"table8":   x.Table8(),
		"table9":   x.Table9(),
		"table10":  x.Table10(),
		"table11":  x.Table11(),
		"table12":  x.Table12(),
		"timeouts": x.Timeouts(),
		"summary":  x.CampaignSummary(),
	} {
		if len(s) < 60 {
			t.Errorf("%s suspiciously short: %q", name, s)
		}
	}
	// The live Table 5 must mark every seeded bug as detected.
	if strings.Contains(x.Table5Live(), "MISSED") {
		t.Errorf("Table 5 reports missed seeded bugs:\n%s", x.Table5Live())
	}
	// Table 10's totals line carries the percentage shape of the paper.
	if !strings.Contains(x.Table10(), "%") {
		t.Error("Table 10 missing percentages")
	}
}

func TestFigMetaInfo(t *testing.T) {
	r, err := all.ByName("yarn")
	if err != nil {
		t.Fatal(err)
	}
	s := FigMetaInfo(r, 11, 1)
	if !strings.Contains(s, "node1:45454") || !strings.Contains(s, "->") && !strings.Contains(s, "HashMap") {
		t.Errorf("figure missing node values:\n%s", s)
	}
	if !strings.Contains(s, "container_") {
		t.Errorf("figure missing associated values:\n%s", s)
	}
}

func TestTableWriterAlignment(t *testing.T) {
	w := &tw{}
	w.row("a", "bb", "ccc")
	w.row("dddd", "e", "f")
	out := w.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All rows share the same width.
	if len(lines[0]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing header rule:\n%s", out)
	}
}
