// Command odpload is the repository's benchmark: six named workloads
// over real loopback TCP (two OS processes) and over the in-process
// fabric, five end-to-end metrics normalised by a reference round trip
// measured in the same second, and a per-layer pass that times calls
// into each layer's public entry points from outside.
//
// One run, the form BENCHMARK.json's command takes:
//
//	odpload -workload tcp_serial -seed 1 -seconds 16 -trace 0
//
// prints every metric with unit, sample count and spread, then one JSON
// object as the last line. -trace 1 reports the per-layer metrics
// instead and writes trace_<workload>.jsonl under -out.
//
// A set, all six workloads with both passes, written to a result file:
//
//	odpload -out benchmark/out -seed 1
//	odpload -compare benchmark/out/result_seed1.json benchmark/out/result_seed2.json
//
// benchmark/README.md defines the metrics and says how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// gcPercent is the GOGC setting of both processes. They have next to no
// live heap, so at the default of 100 the collector starts a cycle every
// few thousand calls of the loop_* workloads. Measured on loop_woven, ten
// runs each: spread of call_p50_rel 7.1 % at 100, 2.3 % at 400. More is
// not better: at 1600 some tcp_bulk runs were half as fast as others.
const gcPercent = 400

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odpload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o        options
		name     = fs.String("workload", "", "run this one workload and end with the result as one JSON line (default: the whole set)")
		trace    = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		serveFlg = fs.Bool("serve", false, "internal: be the server process of a tcp_* workload")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 if any row is worse")
		commit   = fs.String("commit", "unknown", "commit id to record in the result file")
	)
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 16, "length of the measured part of one run")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test schedule: 100 ms slices, one cold start")
	fs.IntVar(&o.cpus, "cpus", 1, "CPUs to pin both processes to (BENCHMARK.json numbers are always 1)")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "odpload:", err)
		return 1
	}

	switch {
	case *serveFlg:
		debug.SetGCPercent(gcPercent)
		if err := serve(os.Stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if o.seconds <= 0 || o.cpus < 1 {
		return fail(fmt.Errorf("-seconds and -cpus must be positive"))
	}

	// Both processes on one shared core: see the README for why. The
	// watchdog turns a hang into a failed run.
	pinned, err := pinToCPUs(o.cpus)
	if err != nil {
		fmt.Fprintln(stderr, "odpload: running unpinned:", err)
	}
	debug.SetGCPercent(gcPercent)
	limit := time.Duration(o.seconds*float64(time.Second))*4 + time.Minute // one run
	if *name == "" {
		limit *= time.Duration(2 * len(workloads))
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintln(stderr, "odpload: run did not end; giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fail(err)
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("no workload %q", *name))
		}
		o.trace = *trace != 0
		runtime.GOMAXPROCS(w.procs(o.cpus))
		res, err := runWorkload(w, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(stdout, res)
		if err := printContractLine(stdout, res); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	set := resultSet{Meta: hostMeta(o, pinned, *commit), Workloads: map[string]*setEntry{}}
	correct := true
	for _, w := range workloads {
		entry := &setEntry{}
		for _, tr := range []bool{false, true} {
			po := o
			po.trace = tr
			runtime.GOMAXPROCS(w.procs(o.cpus))
			res, err := runWorkload(w, po)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(stdout, res)
			correct = correct && res.Correct
			if tr {
				entry.PerLayer = res
			} else {
				entry.EndToEnd = res
			}
		}
		set.Workloads[w.name] = entry
	}
	path := filepath.Join(o.out, fmt.Sprintf("result_seed%d.json", o.seed))
	if err := set.write(path); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "wrote", path)
	if !correct {
		return fail(fmt.Errorf("a correctness check failed"))
	}
	return 0
}

// printResult prints every metric of a run by name, with its unit, how
// many samples it is the median of and their inter-quartile range.
func printResult(w io.Writer, res *result) {
	pass := "end-to-end"
	if res.Trace {
		pass = "per-layer"
	}
	fmt.Fprintf(w, "\n%s  %s  attempted=%d failed=%d correct=%v\n", res.Workload, pass, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-8s n=%-5d iqr=%.4g (%.1f%%)\n", n, m.Value, m.Unit, m.N, m.IQR, 100*m.spread())
	}
	for _, note := range res.Notes {
		fmt.Fprintln(w, "  note:", note)
	}
}

// printContractLine prints the run as the single JSON object the
// benchmark contract reads from the last line of output.
func printContractLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// setEntry is one workload of a set: its two passes.
type setEntry struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// resultSet is a result file: all workloads plus the machine they ran on.
type resultSet struct {
	Meta      map[string]string    `json:"meta"`
	Workloads map[string]*setEntry `json:"workloads"`
}

func (s resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostMeta records what a number depends on besides the code.
func hostMeta(o options, pinned []int, commit string) map[string]string {
	cpu := "unpinned"
	if len(pinned) > 0 {
		cpu = strings.Trim(fmt.Sprint(pinned), "[]")
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	model := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return map[string]string{
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
		"commit":     commit,
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"cpu_model":  model,
		"pinned_cpu": cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
	}
}
