package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// checkDecodeSpan fails t unless decodeSpan and json.Unmarshal agree on
// in: both refuse it, or both accept it with equal spans.
func checkDecodeSpan(t *testing.T, in []byte) {
	t.Helper()
	var got, want Span
	gotErr, wantErr := decodeSpan(in, &got), json.Unmarshal(in, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: decodeSpan error %v, json.Unmarshal error %v", in, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeSpan = %+v, json.Unmarshal = %+v", in, got, want)
	}
}

// tracerLines is the JSONL a Tracer writes for a few campaigns, with
// every span kind and field.
func tracerLines(t testing.TB) [][]byte {
	var b bytes.Buffer
	tr := NewTracer(&b)
	tr.Now = fakeClock()
	emitCampaign(tr, Scope{System: "yarn", Campaign: "test"})
	emitCampaign(tr, Scope{System: "hdfs", Campaign: "recovery"})
	tr.Emit(Event{Kind: CampaignStart, Scope: Scope{System: "hbase", Campaign: "test"}, Run: -1, Total: 3, Done: 2})
	tr.Emit(Event{Kind: PhaseEnd, Scope: Scope{System: "hbase"}, Run: -1, Phase: "analysis", Wall: 1234567 * time.Nanosecond, Sim: 7 * sim.Millisecond})
	tr.Emit(Event{Kind: RunDone, Scope: Scope{System: "hbase", Campaign: "test"}, Run: 2, Done: 3, Total: 3,
		Crash: "hbase.master.HMaster.assign#12", Fault: "shutdown", Target: "rs1:16020", Outcome: "job-failure",
		Wall: 3 * time.Nanosecond, Sim: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(b.Bytes(), []byte("\n")), []byte("\n"))
}

// TestDecodeSpanTracerLinesTakeDirectPath pins that every line the
// Tracer writes takes the direct parser — a field it cannot read would
// silently send whole traces back through reflection — and decodes as
// json.Unmarshal would.
func TestDecodeSpanTracerLinesTakeDirectPath(t *testing.T) {
	for _, ln := range tracerLines(t) {
		var s Span
		if !parseSpan(ln, &s) {
			t.Errorf("direct parser refused a Tracer line: %s", ln)
		}
		checkDecodeSpan(t, ln)
	}
}

// TestDecodeSpanMatchesUnmarshal covers the input the direct parser
// must hand to json.Unmarshal, or refuse exactly as it does.
func TestDecodeSpanMatchesUnmarshal(t *testing.T) {
	for _, in := range []string{
		`{}`,
		`{"span":"run","id":1,"run":0}`,
		`{"span":"phase","id":4,"parent":2,"phase":"drive","wall_ms":2,"sim_ms":3000}`,
		`{ "span":"run"}`,
		`{"span" :"run"}`,
		`{"span":"run" }`,
		`{"crash":"a\"b"}`,
		`{"crash":"aé"}`,
		`{"target":"<node>"}`,
		"{\"crash\":\"\xc3\xa9\"}",
		"{\"crash\":\"\xff\"}",
		"{\"crash\":\"a\tb\"}",
		"{\"crash\":\"a\x7fb\"}",
		`{"run":null}`,
		`{"crash":null}`,
		`{"Span":"run","ID":3}`,
		`{"span":"run"}`,
		`{"unknown":1,"span":"run"}`,
		`{"id":-1}`,
		`{"id":-0}`,
		`{"run":-0}`,
		`{"run":-7}`,
		`{"id":18446744073709551615}`,
		`{"id":18446744073709551616}`,
		`{"total":9223372036854775807}`,
		`{"total":9223372036854775808}`,
		`{"id":01}`,
		`{"id":1.0}`,
		`{"total":1.5}`,
		`{"total":1e2}`,
		`{"wall_ms":1e400}`,
		`{"wall_ms":1.}`,
		`{"wall_ms":.5}`,
		`{"wall_ms":-0}`,
		`{"wall_ms":-0.25}`,
		`{"wall_ms":1E+2}`,
		`{"wall_ms":1e-07}`,
		`{"wall_ms":1e}`,
		`{"wall_ms":00.5}`,
		`{"wall_ms":"1"}`,
		`{"span":1}`,
		`{"run":1,"run":2}`,
		`{"id":1,"id":2,"span":"run","span":"phase"}`,
		`{"span":"run",}`,
		`{"span":"run"}x`,
		`{"span":"run"}}`,
		`{"span":"run"`,
		`{"span"}`,
		`{"span":}`,
		`{,}`,
		`{"span":"run""id":1}`,
		`[]`,
		`{`,
		`}`,
		``,
		`null`,
	} {
		checkDecodeSpan(t, []byte(in))
	}
}

// FuzzDecodeSpan holds decodeSpan to json.Unmarshal on arbitrary
// lines, seeded with the Tracer's own output.
func FuzzDecodeSpan(f *testing.F) {
	for _, ln := range tracerLines(f) {
		f.Add(ln)
	}
	f.Add([]byte(`{"run":1,"run":2,"wall_ms":-0.5e-3}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecodeSpan(t, in)
	})
}

// BenchmarkReadTrace reads a trace shaped like a fleet round's: 28
// campaign starts, then runs of three phases each.
func BenchmarkReadTrace(b *testing.B) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for c := 0; c < 28; c++ {
		tr.Emit(Event{Kind: CampaignStart, Scope: Scope{System: "yarn", Campaign: fmt.Sprint("c", c)}, Run: -1, Total: 6})
	}
	for r := 0; r < 150; r++ {
		sc := Scope{System: "yarn", Campaign: fmt.Sprint("c", r%28)}
		for _, ph := range []string{"setup", "drive", "oracle"} {
			tr.Emit(Event{Kind: PhaseEnd, Scope: sc, Run: r, Phase: ph, Wall: 48432 * time.Nanosecond, Sim: 958 * sim.Millisecond})
		}
		tr.Emit(Event{Kind: RunDone, Scope: sc, Run: r,
			Crash: "yarn.server.nodemanager.NodeManager.launchContainer#0", Fault: "crash", Target: "node1:45454",
			Outcome: "ok", Sim: 7800 * sim.Millisecond})
	}
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	if lines := strings.Count(buf.String(), "\n"); lines != 28+150*4 {
		b.Fatalf("trace holds %d lines", lines)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTrace(bytes.NewReader(data), func(int, Span) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
