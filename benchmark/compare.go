package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet is what -repeat writes and -compare reads: every run of one build.
type runSet struct {
	Binary string      `json:"binary"`
	Runs   []runRecord `json:"runs"`
}

// child runs one workload once in a process of its own, so that the peak
// resident set and the heap of one run do not leak into the next, and
// returns the record the child wrote.
func child(stderr io.Writer, binary, workload string, seed int64, seconds float64, trace int, dir string) (runRecord, error) {
	cmd := exec.Command(binary,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", dir)
	cmd.Stderr = stderr
	runErr := cmd.Run() // waits for the child to end
	var rec runRecord
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)))
	if err != nil {
		if runErr != nil {
			return rec, fmt.Errorf("%s %s seed %d: %w", binary, workload, seed, runErr)
		}
		return rec, err
	}
	return rec, json.Unmarshal(data, &rec)
}

// orchestrate runs every named workload repeats times, untraced and traced,
// each run in a child process. Repeat r uses seed+r. With another build given
// the two builds run back to back on the same seed, and which goes first
// alternates from repeat to repeat, as does the order of the workloads, so
// that drift of the machine falls on both sides alike.
func orchestrate(stdout, stderr io.Writer, names []string, seed int64, seconds float64, repeats int, dir, against string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "deepstore-benchmark-"); err != nil {
			return false, err
		}
		defer os.RemoveAll(dir)
	}
	sides := []*runSet{{Binary: self}}
	if against != "" {
		sides = append(sides, &runSet{Binary: against})
	}
	ok := true
	for r := 0; r < repeats; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			for trace := 0; trace <= 1; trace++ {
				for s := range sides {
					side := sides[(s+r)%len(sides)]
					sub := filepath.Join(dir, fmt.Sprintf("side%d", (s+r)%len(sides)))
					rec, err := child(stderr, side.Binary, name, seed+int64(r), seconds, trace, sub)
					if err != nil {
						return false, err
					}
					side.Runs = append(side.Runs, rec)
					ok = ok && rec.Correct
					if len(sides) == 1 && repeats == 1 {
						printRecord(stdout, rec)
					} else {
						fmt.Fprintf(stdout, "repeat %d %s trace %d %s: correct %v\n", r, name, trace, filepath.Base(side.Binary), rec.Correct)
					}
				}
			}
		}
	}
	files := []string{"runs.json", "against.json"}
	for i, side := range sides {
		data, err := json.MarshalIndent(side, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(filepath.Join(dir, files[i]), append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if against != "" {
		return ok, compareSets(stdout, *sides[1], *sides[0])
	}
	return ok, nil
}

func readRunSet(path string) (runSet, error) {
	var rs runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	return rs, json.Unmarshal(data, &rs)
}

func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readRunSet(basePath)
	if err != nil {
		return err
	}
	change, err := readRunSet(changePath)
	if err != nil {
		return err
	}
	return compareSets(w, base, change)
}

// verdict labels one workload x metric row of a comparison.
type verdict string

const (
	improved   verdict = "improved"
	noWorse    verdict = "no worse"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// minPairs is the fewest pairs of runs a gain may be claimed on.
const minPairs = 10

// judge compares the change's values with the base's, pair by pair.
//
//   - improved: there are at least ten pairs, the change wins at least nine
//     tenths of them (ties count for neither) and the medians differ by more
//     than the base's own interquartile distance;
//   - unresolved: the base's spread is wider than the bound, so a shift of
//     the bound's size cannot be told from noise - unless every run of the
//     change reads better than every run of the base;
//   - regressed: the change's median is worse than the base's by more than
//     bound x base median;
//   - no worse: otherwise.
func judge(base, change []float64, better string, bound float64) verdict {
	n := min(len(base), len(change))
	if n == 0 {
		return unresolved
	}
	sign := 1.0 // positive delta = better
	if better == lower {
		sign = -1
	}
	wins := 0
	for i := 0; i < n; i++ {
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	mb, mc := median(base), median(change)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	if n >= minPairs && float64(wins) >= 0.9*float64(n) && sign*(mc-mb) > iqr {
		return improved
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	if n >= 2 && iqr/mb > bound && !allBetter {
		return unresolved
	}
	if sign*(mc-mb) < -bound*mb {
		return regressed
	}
	return noWorse
}

// compareSets prints one row per workload and end-to-end metric: each side's
// median and quartiles, the ratio with its base, and the verdict.
func compareSets(w io.Writer, base, change runSet) error {
	collect := func(rs runSet) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs.Runs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	b, c := collect(base), collect(change)
	fmt.Fprintf(w, "base   %s\nchange %s\n", base.Binary, change.Binary)
	fmt.Fprintf(w, "%-20s %-18s %5s %34s %34s %22s  %s\n", "workload", "metric", "pairs",
		"base median [q1, q3]", "change median [q1, q3]", "change/base (base)", "verdict")
	for _, wd := range workloadDefs {
		for _, d := range endToEnd {
			bv, cv := b[wd.Name][d.Name], c[wd.Name][d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bq1, bq3 := quartiles(bv)
			cq1, cq3 := quartiles(cv)
			mb, mc := median(bv), median(cv)
			fmt.Fprintf(w, "%-20s %-18s %5d %12.5g [%9.5g, %9.5g] %12.5g [%9.5g, %9.5g] %8.4f (%.5g %s)  %s\n",
				wd.Name, d.Name, min(len(bv), len(cv)), mb, bq1, bq3, mc, cq1, cq3, mc/mb, mb, d.Unit,
				judge(bv, cv, d.Better, d.Bound))
		}
	}
	// The simulated side must not move at all under a host-only change.
	digests := func(rs runSet) map[string]string {
		out := map[string]string{}
		for _, r := range rs.Runs {
			out[fmt.Sprintf("%s seed %d trace %d", r.Workload, r.Seed, r.Trace)] = r.Info["sim_digest"]
		}
		return out
	}
	bd, same, differ := digests(base), 0, 0
	for key, d := range digests(change) {
		if bd[key] == "" {
			continue
		}
		if bd[key] == d {
			same++
		} else {
			differ++
			fmt.Fprintf(w, "sim_digest differs: %s: base %s change %s\n", key, bd[key], d)
		}
	}
	fmt.Fprintf(w, "sim_digest: %d runs identical, %d differ\n", same, differ)
	return nil
}
