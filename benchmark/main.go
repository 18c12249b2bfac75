// Command benchmark is DeepStore's two-clock benchmark: four named workloads
// driven through the root facade, with the host clock (how fast this process
// runs) reported end to end and the simulated clock and every layer of the
// stack reported by a separate traced run. See README.md in this directory.
//
//	go run ./benchmark -workload scan_dense -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload all -seed 1 -out DIR
//	go run ./benchmark -workload all -repeat 10 -out DIR [-against OTHER_BINARY]
//	go run ./benchmark -compare BASE.json CHANGE.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// probeBudget is how long each layer probe of a traced run repeats its call.
const probeBudget = 150 * time.Millisecond

// setupRepeats is how many times an untraced run sets the workload up; the
// median is reported as setup_s and the last instance is the one measured.
const setupRepeats = 5

// measured is one metric value with its unit, as the last output line
// carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload.
type runRecord struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     int                 `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	// Info is what a reader wants beside the metrics but the builder's
	// contract has no place for: the digest of the simulated results, the
	// sample counts behind the percentiles, the machine shape.
	Info map[string]string `json:"info"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "directory for run records and the trace file")
	repeat := fs.Int("repeat", 0, "run the workload(s) this many times, seeds seed..seed+repeat-1, and write a run set")
	against := fs.String("against", "", "with -repeat: another build of this benchmark to run in alternation")
	compare := fs.Bool("compare", false, "compare two run sets: -compare BASE.json CHANGE.json")
	describe := fs.Bool("describe", false, "print the BENCHMARK.json this build stands for, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *describe {
		data, err := json.MarshalIndent(description(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two run-set files"))
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if setups[n] == nil {
			return fail(fmt.Errorf("unknown workload %q", n))
		}
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1"))
	}
	if *workload == "all" || *repeat > 0 {
		ok, err := orchestrate(stdout, stderr, names, *seed, *seconds, max(*repeat, 1), *out, *against)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	rec, spans, err := runOne(*workload, *seed, *seconds, *trace == 1, frozen, probeBudget)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeRun(*out, rec, spans); err != nil {
			return fail(err)
		}
	}
	printRecord(stdout, rec)
	line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		fmt.Fprintln(stderr, "benchmark: output check failed:", rec.Info["first_error"])
		return 1
	}
	return 0
}

// runOne sets a workload up, drives its closed loop, checks its outputs and
// returns the run's record; a traced run also returns its spans.
func runOne(name string, seed int64, seconds float64, traced bool, sz sizes, budget time.Duration) (runRecord, []span, error) {
	setup := setups[name]
	rec := runRecord{Workload: name, Seed: seed, Metrics: map[string]measured{}, Info: map[string]string{}}

	// Set-up, timed. The untraced run sets up several times and reports the
	// median, so that one slow set-up does not move setup_s; the traced run
	// does not report it and sets up once.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var inst *instance
	var setupS []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			// Drop the discarded instance before the next is built, so that
			// the repeats do not pile up in the peak resident set.
			inst.close()
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if inst, err = setup(seed, sz); err != nil {
			return rec, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	values := map[string]float64{}
	var spans []span
	var loop loopResult
	if !traced {
		loop = runLoop(inst, seconds, nil)
		verifyKept(inst, &loop)
		st := account(loop.samples, loop.elapsed, func(sample) bool { return true })
		values["setup_s"] = median(setupS)
		values["host_op_p50_ms"] = ms(st.p50)
		values["host_op_p90_ms"] = ms(st.p90)
		values["host_ops_per_s"] = st.opsPerS
		values["host_peak_rss_mb"] = peakRSSMB()
		rec.Info["ops"] = strconv.Itoa(st.ops)
		rec.Info["samples_beyond_p90"] = strconv.Itoa(st.beyond90)
		rec.Info["highest_percentile_with_10_beyond"] = strconv.FormatFloat(tailPercentile(st.ops), 'g', -1, 64)
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = measured{values[d.Name], d.Unit}
		}
	} else {
		// The traced run spends half its window in the loop, alternating
		// untraced and traced ops, and the rest replaying layers.
		tr := newRecorder()
		if inst.enableTrace != nil {
			inst.enableTrace(tr)
		}
		loop = runLoop(inst, seconds/2, tr)
		verifyKept(inst, &loop)
		lc := &layerCtx{m: values, loop: loop, rec: tr, procs: runtime.GOMAXPROCS(0), budget: budget}
		lc.untraced = account(loop.samples, loop.elapsed, func(s sample) bool { return !s.traced })
		commonLayers(lc, inst.functional)
		if err := inst.layers(lc); err != nil {
			return rec, nil, fmt.Errorf("%s: layer probes: %w", name, err)
		}
		spans = tr.snapshot()
		values["trace.spans"] = float64(len(spans))
		rec.Trace = 1
		rec.Info["ops"] = strconv.Itoa(len(loop.samples))
		for _, d := range perLayer {
			rec.Metrics[d.Name] = measured{values[d.Name], d.Unit}
		}
	}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return rec, nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	c := loop.checker
	rec.Attempted = c.attempted
	rec.Failed = c.failed + c.mismatched
	rec.Correct = rec.Failed == 0 && c.attempted > 0
	rec.Info["sim_digest"] = fmt.Sprintf("%016x", loop.sim.digest.Sum64())
	rec.Info["sim_ops"] = strconv.Itoa(loop.sim.ops)
	rec.Info["oracle_checked_ops"] = strconv.Itoa(c.checked)
	rec.Info["append_samples"] = strconv.Itoa(len(loop.appends))
	rec.Info["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	rec.Info["nproc"] = strconv.Itoa(runtime.NumCPU())
	rec.Info["go"] = runtime.Version()
	if c.firstErr != "" {
		rec.Info["first_error"] = c.firstErr
	}
	return rec, spans, nil
}

// verifyKept runs the brute-force oracle over the ops the loop kept.
func verifyKept(inst *instance, loop *loopResult) {
	for _, o := range loop.kept {
		inst.verify(loop.checker, o)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printRecord lists every metric of the run by name, with its unit.
func printRecord(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  correct %v  attempted %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	info := make([]string, 0, len(rec.Info))
	for k := range rec.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(w, "  info %-31s %s\n", k, rec.Info[k])
	}
}

// writeRun writes the run's record, and a traced run's spans as a Chrome
// trace file, into dir.
func writeRun(dir string, rec runRecord, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
