package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares two measurements of one end-to-end metric. b is worse
// when its median is worse than a's by more than the metric's bound, as
// a share of a's median. When either side's own spread exceeds the
// bound the run cannot tell a regression of that size from noise, and
// the row is unresolved rather than ok or worse.
func judge(d metricDef, a, b summary) (delta float64, verdict string) {
	if a.Value != 0 {
		delta = (b.Value - a.Value) / a.Value
	}
	if a.spread() > d.bound || b.spread() > d.bound {
		return delta, verdictUnresolved
	}
	worse := delta
	if d.better == "higher" {
		worse = -delta
	}
	if worse > d.bound {
		return delta, verdictWorse
	}
	return delta, verdictOK
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints one row per end-to-end metric and workload of two
// result files and returns how many rows are worse in the second.
func compareFiles(w io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s %v\nb: %s %v\n", pathA, a.Meta, pathB, b.Meta)
	fmt.Fprintf(w, "%-14s %-16s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "iqr", "b", "iqr", "delta", "bound", "verdict")
	unresolved := 0
	for _, wl := range workloads {
		ea, eb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ea == nil || eb == nil || ea.EndToEnd == nil || eb.EndToEnd == nil {
			return worse, fmt.Errorf("workload %s is missing from a result file", wl.name)
		}
		for _, d := range endToEnd {
			ma, okA := ea.EndToEnd.Metrics[d.name]
			mb, okB := eb.EndToEnd.Metrics[d.name]
			if !okA || !okB {
				return worse, fmt.Errorf("%s/%s is missing from a result file", wl.name, d.name)
			}
			delta, verdict := judge(d, ma.summary, mb.summary)
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-16s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.name, d.name, ma.Value, 100*ma.spread(), mb.Value, 100*mb.spread(),
				100*delta, 100*d.bound, verdict)
		}
		if ea.EndToEnd.Failed != 0 || eb.EndToEnd.Failed != 0 {
			fmt.Fprintf(w, "%-14s failed operations: a=%d b=%d\n", wl.name, ea.EndToEnd.Failed, eb.EndToEnd.Failed)
			if eb.EndToEnd.Failed > ea.EndToEnd.Failed {
				worse++
			}
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	return worse, nil
}
