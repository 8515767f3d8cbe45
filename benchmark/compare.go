package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minClaimPairs is the fewest base/head pairs on which an improvement
// may be claimed.
const minClaimPairs = 10

// judgement is the comparison of one (metric, workload) pair.
type judgement struct {
	verdict string // improved, unchanged, worse or unresolved
	won     float64
	pairs   int
	baseMed float64
	headMed float64
	change  float64 // (head-base)/base
}

// judge compares base and head runs of one metric, paired by position.
// Improved: head wins at least nine tenths of the pairs (ties count for
// neither), over at least minClaimPairs pairs, and the medians differ in
// head's favour by more than the base runs' interquartile range.
// Unresolved: either side's spread (IQR over median) exceeds the bound,
// unless every head run beats every base run. Worse: head's median is
// worse than base's by more than the bound. Otherwise unchanged.
func judge(base, head []float64, better string, bound float64) judgement {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	j := judgement{pairs: min(len(base), len(head)), baseMed: median(base), headMed: median(head)}
	j.change = ratio(j.headMed-j.baseMed, math.Abs(j.baseMed))
	won := 0
	for i := 0; i < j.pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			won++
		}
	}
	j.won = ratio(float64(won), float64(j.pairs))
	q1, q3 := quartiles(base)
	gain := sign * (j.headMed - j.baseMed)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) > 0
		}
	}
	switch {
	case j.pairs >= minClaimPairs && j.won >= 0.9 && gain > q3-q1:
		j.verdict = "improved"
	case (spread(base) > bound || spread(head) > bound) && !allBetter:
		j.verdict = "unresolved"
	case -sign*j.change > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// runCompare judges every (end-to-end metric, workload) pair present in
// both sets of result files. The files split into base and head by
// directory: the first directory named is the base. It returns exit
// code 1 if any pair is worse.
func runCompare(w io.Writer, boundsPath string, args []string) (int, error) {
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return 0, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", boundsPath, err)
	}
	var dirs []string
	groups := map[string][]string{}
	for _, a := range args {
		files := []string{a}
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			files, _ = filepath.Glob(filepath.Join(a, "*.json"))
		} else {
			a = filepath.Dir(a)
		}
		if _, ok := groups[a]; !ok {
			dirs = append(dirs, a)
		}
		groups[a] = append(groups[a], files...)
	}
	if len(dirs) != 2 {
		return 0, fmt.Errorf("need result files from exactly two directories (base, head), got %d", len(dirs))
	}
	// values[side][workload][metric] in file order, files sorted by name.
	var values [2]map[string]map[string][]float64
	for side, dir := range dirs {
		values[side] = map[string]map[string][]float64{}
		files := groups[dir]
		sort.Strings(files)
		for _, f := range files {
			recs, err := loadRecords(f)
			if err != nil {
				return 0, err
			}
			for _, rec := range recs {
				if rec.Trace {
					continue
				}
				if values[side][rec.Workload] == nil {
					values[side][rec.Workload] = map[string][]float64{}
				}
				for name, v := range rec.Metrics {
					values[side][rec.Workload][name] = append(values[side][rec.Workload][name], v.Value)
				}
			}
		}
	}
	fmt.Fprintf(w, "base %s vs head %s\n", dirs[0], dirs[1])
	fmt.Fprintf(w, "%-14s %-16s %12s %25s %12s %25s %8s %6s %5s  %s\n",
		"workload", "metric", "base med", "base [q1, q3]", "head med", "head [q1, q3]", "change", "won", "pairs", "verdict")
	code := 0
	for _, wl := range workloads {
		b, h := values[0][wl.name], values[1][wl.name]
		if b == nil || h == nil {
			continue
		}
		for _, m := range def.EndToEnd {
			bv, hv := b[m.Name], h[m.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			j := judge(bv, hv, m.Better, m.Bound)
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Fprintf(w, "%-14s %-16s %12.5g %25s %12.5g %25s %+7.2f%% %5.0f%% %5d  %s\n",
				wl.name, m.Name, j.baseMed, fmt.Sprintf("[%.5g, %.5g]", bq1, bq3),
				j.headMed, fmt.Sprintf("[%.5g, %.5g]", hq1, hq3), 100*j.change, 100*j.won, j.pairs, j.verdict)
			if j.verdict == "worse" {
				code = 1
			}
		}
	}
	return code, nil
}
