package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the declared side of the benchmark, as the contract
// reads it from the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sortedKeys(m map[string]measured) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestQuickSmoke runs all six workloads, both passes, on the smoke-test
// schedule with the server role on goroutines over real loopback TCP,
// and checks that each pass emits exactly the metrics BENCHMARK.json
// declares for it — names, units, directions and bounds.
func TestQuickSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	want := map[bool][]string{}
	for trace, side := range map[bool]struct {
		decl []declared
		defs []metricDef
	}{false: {b.EndToEnd, endToEnd}, true: {b.PerLayer, perLayer}} {
		if len(side.decl) != len(side.defs) {
			t.Fatalf("trace=%v: BENCHMARK.json declares %d metrics, odpload defines %d", trace, len(side.decl), len(side.defs))
		}
		for _, d := range side.decl {
			def, ok := findDef(side.defs, d.Name)
			if !ok || def.unit != d.Unit || def.better != d.Better || def.bound != d.Bound {
				t.Errorf("BENCHMARK.json has %+v, odpload defines %+v", d, def)
			}
			want[trace] = append(want[trace], d.Name)
		}
		sort.Strings(want[trace])
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, odpload has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in odpload", i, w.Name, workloads[i].name)
		}
	}

	// One P: the smoke test runs inside `go test ./...` beside packages
	// whose simulations misbehave when starved, so it keeps to one CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, options{seed: 7, quick: true, inProcess: true, cpus: 1, trace: trace, out: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, " ") != strings.Join(want[trace], " ") {
				t.Errorf("%s trace=%v emits\n %v\nBENCHMARK.json declares\n %v", w.name, trace, got, want[trace])
			}
			var line bytes.Buffer
			if err := printContractLine(&line, res); err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || parsed.Correct == nil ||
				parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(want[trace]) {
				t.Errorf("%s: contract line %q: %v", w.name, line.String(), err)
			}
		}
		trace, err := os.Open(filepath.Join(out, "trace_"+w.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(trace)
		roots, children := 0, 0
		for sc.Scan() {
			var sp struct {
				Name   string
				Parent *int
			}
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				t.Fatalf("%s trace line %q: %v", w.name, sc.Text(), err)
			}
			if sp.Parent == nil {
				roots++
			} else {
				children++
			}
		}
		trace.Close()
		if roots == 0 || children < roots*len(chain) {
			t.Errorf("%s: trace holds %d iterations and %d rung spans", w.name, roots, children)
		}
	}
}

// TestServeRole drives the server process's control protocol without the
// process: ready line, a stats answer, exit when input ends.
func TestServeRole(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := serve(inR, outW)
		outW.Close()
		done <- err
	}()
	lines := bufio.NewReader(outR)
	var info serverInfo
	line, err := lines.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &info); err != nil || info.Ref == "" || info.EchoAddr == "" || info.FrameAddr == "" {
		t.Fatalf("ready line %q: %v", line, err)
	}
	if _, err := io.WriteString(inW, "stats\n"); err != nil {
		t.Fatal(err)
	}
	var st procStats
	if line, err = lines.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &st); err != nil || st.Mallocs == 0 {
		t.Fatalf("stats line %q: %v", line, err)
	}
	if _, ok := st.Gather["rpc.server.requests"]; !ok {
		t.Errorf("stats carry no Gather snapshot: %v", st.Gather)
	}
	inW.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"call_p50_rel", "xref", "lower", 0.10}
	higher := metricDef{"throughput_rel", "ops/ref", "higher", 0.10}
	tight := func(v float64) summary { return summary{Value: v, IQR: v * 0.02, N: 40} }
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, tight(2.0), tight(2.1), verdictOK},
		{lower, tight(2.0), tight(2.3), verdictWorse},
		{lower, tight(2.0), tight(1.5), verdictOK},
		{higher, tight(0.40), tight(0.39), verdictOK},
		{higher, tight(0.40), tight(0.30), verdictWorse},
		{higher, tight(0.40), tight(0.50), verdictOK},
		{lower, summary{Value: 2.0, IQR: 0.5, N: 40}, tight(2.3), verdictUnresolved},
		{lower, tight(2.0), summary{Value: 2.0, IQR: 0.5, N: 40}, verdictUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	set := func(p50 float64, failed int64) resultSet {
		s := resultSet{Meta: map[string]string{"seed": "1"}, Workloads: map[string]*setEntry{}}
		for _, w := range workloads {
			res := &result{Workload: w.name, Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]measured{}}
			for _, d := range endToEnd {
				res.Metrics[d.name] = measured{summary: summary{Value: 1, IQR: 0.01, N: 40}, Unit: d.unit}
			}
			res.Metrics["call_p50_rel"] = measured{summary: summary{Value: p50, IQR: 0.01, N: 40}, Unit: "xref"}
			s.Workloads[w.name] = &setEntry{EndToEnd: res}
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s resultSet) string {
		path := filepath.Join(dir, name)
		if err := s.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(2.0, 0))
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("same.json", set(2.05, 0))); err != nil || worse != 0 {
		t.Fatalf("same code: %d worse, %v\n%s", worse, err, out.String())
	}
	if rows := strings.Count(out.String(), verdictOK); rows != len(workloads)*len(endToEnd) {
		t.Errorf("want one ok row per metric and workload, got %d:\n%s", rows, out.String())
	}
	if worse, err := compareFiles(io.Discard, base, write("slow.json", set(2.5, 0))); err != nil || worse != len(workloads) {
		t.Fatalf("slower p50: %d worse, %v", worse, err)
	}
	if worse, err := compareFiles(io.Discard, base, write("wrong.json", set(2.0, 3))); err != nil || worse != len(workloads) {
		t.Fatalf("failed operations: %d worse, %v", worse, err)
	}
}
