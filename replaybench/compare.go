package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readReports(list string) ([]report, error) {
	var out []report
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != 2 {
			return nil, fmt.Errorf("%s: schema %d, want 2", path, r.Schema)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareFiles compares two lists of reports metric by metric and
// returns how many end-to-end metrics regressed.
func compareFiles(w io.Writer, specPath, oldList, newList string) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	old, err := readReports(oldList)
	if err != nil {
		return 0, err
	}
	cur, err := readReports(newList)
	if err != nil {
		return 0, err
	}
	regressions := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := sideValues(old, wl.Name, m.Name), sideValues(cur, wl.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-14s %-14s %s\n", wl.Name, m.Name, "missing from a side")
				continue
			}
			v := judge(m.Better, m.Bound, o, n)
			if v.word == "regression" {
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, v.old, v.cur, 100*v.worse, 100*v.spread, 100*m.Bound, v.word)
		}
	}
	return regressions, nil
}

// sideValues collects one metric of one workload's untraced run from
// every report of a side.
func sideValues(reps []report, workload, metric string) []metricValue {
	var out []metricValue
	for _, r := range reps {
		for _, run := range r.Runs {
			if run.Workload == workload && !run.Trace {
				if v, ok := run.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

type verdict struct {
	old, cur      float64 // medians
	worse, spread float64 // shares of the old median
	word          string
}

// judge compares two sides' medians. A side of several reports takes
// the median and quartiles of their values; a side of one report takes
// that report's value and its own quartiles over operations. The
// verdict is "regression" when the new median is worse than the old by
// more than the bound, "unresolved" when either side's spread is wider
// than the bound and not every new value beats every old one, and
// otherwise "better" or "ok".
func judge(better string, bound float64, old, cur []metricValue) verdict {
	om, ospread, olo, ohi := side(old)
	nm, nspread, nlo, nhi := side(cur)
	v := verdict{old: om, cur: nm, spread: max(ospread, nspread)}
	allBetter := nhi < olo
	if better == "higher" {
		v.worse = div(om-nm, om)
		allBetter = nlo > ohi
	} else {
		v.worse = div(nm-om, om)
	}
	switch {
	case v.worse > bound:
		v.word = "regression"
	case v.spread > bound && !allBetter:
		v.word = "unresolved"
	case v.worse < 0:
		v.word = "better"
	default:
		v.word = "ok"
	}
	return v
}

// side returns a side's median, relative spread and range.
func side(vals []metricValue) (med, spread, lo, hi float64) {
	if len(vals) == 1 {
		v := vals[0]
		if v.N >= 2 {
			return v.Value, div(v.Q3-v.Q1, v.Value), v.Q1, v.Q3
		}
		return v.Value, 0, v.Value, v.Value
	}
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v.Value
	}
	q1, q3 := quartiles(xs)
	s := sorted(xs)
	med = median(xs)
	return med, div(q3-q1, med), s[0], s[len(s)-1]
}
