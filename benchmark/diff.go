package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// diffCommand compares two sides, each one result file or a
// comma-separated set of them (runs of one commit). Side A is the base of
// every ratio; with several files a side's value is the median of its
// runs and A's quartile spread decides whether a difference can be
// resolved at all.
func diffCommand(w io.Writer, aList, bList string) error {
	a, err := loadSide(aList)
	if err != nil {
		return err
	}
	b, err := loadSide(bList)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s\nB: %s\n\n", a.describe(), b.describe())
	fmt.Fprintf(w, "%-16s %-8s %14s %14s %8s %7s %8s  %s\n",
		"workload", "metric", "A", "B", "B/A", "bound", "spreadA", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			av, bv := a.values(wl.name, m.Name, false), b.values(wl.name, m.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			spread, known := quartileSpread(av)
			fmt.Fprintf(w, "%-16s %-8s %14.4f %14.4f %8.4f %+6.0f%% %8s  %s\n", wl.name, m.Name, am, bm,
				bm/am, signedBound(m)*100, spreadText(spread, known), verdict(m, am, bm, spread, known))
		}
		if av, bv := a.values(wl.name, "p99_ms", false), b.values(wl.name, "p99_ms", false); len(av) > 0 && len(bv) > 0 {
			spread, known := quartileSpread(av)
			fmt.Fprintf(w, "%-16s %-8s %14.4f %14.4f %8.4f %7s %8s  not gated\n", wl.name, "p99_ms",
				median(av), median(bv), median(bv)/median(av), "-", spreadText(spread, known))
		}
		fmt.Fprintf(w, "%-16s %-8s %14.6f %14.6f\n", wl.name, "failed_share",
			median(a.values(wl.name, "failed_share", false)), median(b.values(wl.name, "failed_share", false)))
	}
	fmt.Fprintf(w, "\nlayer walk (medians over each side's runs; - = the layer did not run)\n")
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%-16s %-36s %14s %14s\n", wl.name, "", "A", "B")
		for _, m := range perLayer {
			av, bv := a.values(wl.name, m.Name, true), b.values(wl.name, m.Name, true)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %-36s %14s %14s %s\n", "", m.Name, cell(av), cell(bv), m.Unit)
		}
	}
	return nil
}

// verdict applies the bound: "unresolved" when A's own runs spread wider
// than the bound, "worse" when B's median is worse than A's by more than
// the bound, else "ok".
func verdict(m metricDef, a, b, spread float64, spreadKnown bool) string {
	if spreadKnown && spread > m.Bound {
		return "unresolved"
	}
	worse := (b - a) / a
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "worse"
	}
	return "ok"
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. It needs two values.
func quartileSpread(vs []float64) (float64, bool) {
	if len(vs) < 2 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, exclusive method
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s), true
}

func spreadText(spread float64, known bool) string {
	if !known {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", spread*100)
}

func cell(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", median(vs))
}

type side struct{ files []*resultFile }

func loadSide(list string) (*side, error) {
	s := &side{}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f := &resultFile{}
		if err := json.Unmarshal(data, f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.files = append(s.files, f)
	}
	return s, nil
}

func (s *side) describe() string {
	f := s.files[0]
	seeds := make([]string, len(s.files))
	for i, f := range s.files {
		seeds[i] = fmt.Sprint(f.Seed)
	}
	return fmt.Sprintf("commit %s, %s, GOMAXPROCS %d, %d s, seeds %s", f.Commit, f.GoVersion,
		f.GOMAXPROCS, f.Seconds, strings.Join(seeds, ","))
}

// values collects one metric of one workload over the side's runs.
func (s *side) values(workload, metric string, layer bool) []float64 {
	var out []float64
	for _, f := range s.files {
		for _, res := range f.Workloads {
			if res.Name != workload {
				continue
			}
			from := res.EndToEnd
			if layer {
				from = res.Layers
			}
			if metric == "failed_share" {
				out = append(out, res.FailedShare)
			} else if v, ok := from[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}
