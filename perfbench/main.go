// Command perfbench is the repository's benchmark: it runs one named
// workload against the ASR system for a fixed wall-clock window and
// prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root; run.sh builds and execs this):
//
//	bash perfbench/run.sh --workload decode-dense --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1
// they are the per-layer set, taken from spans the benchmark records
// around its own calls into each module (nothing inside the program is
// instrumented by this command). README.md in this directory maps
// every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are one run's settings: the command line plus the
// workload's own set-up count and concurrency.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setups    int    // set-ups per run (setupRepeats; tests use 1)
	fixtures  string // directory holding the model fixtures and SHA256SUMS
	golden    string // pinned corpus hashes and transcript digests
	serveBin  string // asrserve binary for serve-pruned
	outDir    string // where span dumps and result records are written
	sessions  int    // concurrent sessions or client connections
	writeGold string // regenerate the golden file for these seeds, then exit
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.fixtures, "fixtures", "perfbench/fixtures", "model fixture directory")
	flag.StringVar(&o.golden, "golden", "perfbench/golden.json", "pinned digests file")
	flag.StringVar(&o.serveBin, "serve-bin", ".bench_build/bin/asrserve", "asrserve binary (serve-pruned)")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for span dumps and result records")
	flag.StringVar(&o.writeGold, "write-golden", "", "regenerate the golden file for seeds LO-HI and exit")
	flag.Parse()
	o.trace = traceFlag != 0

	if o.writeGold != "" {
		if err := writeGolden(o); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		log.Fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		log.Fatal("--seconds must be positive")
	}
	o.setups = setupRepeats
	o.sessions = sessionCount(w.sessions)

	rep, err := runWorkload(o, w)
	if err != nil {
		log.Fatal(err)
	}
	if err := emit(o, rep); err != nil {
		log.Fatal(err)
	}
}

// workload is one named benchmark scenario.
type workload struct {
	// setup builds everything the timed window needs. Its per-stage
	// timings (ms) go into stages; the caller times the whole call.
	setup func(o options, stages map[string]float64) (runner, error)
	// sessions is the workload's concurrency: decode sessions or client
	// connections in flight.
	sessions int
}

// runner is a set-up workload, ready to measure.
type runner interface {
	// measure runs the untraced window and fills the end-to-end metrics.
	measure(o options, r *report) error
	// traced runs the traced window and fills the per-layer metrics.
	traced(o options, r *report) error
	// close releases the runner's processes and files.
	close() error
}

// decode-dense runs one session: on a 2-vCPU host whose vCPUs may be
// hyperthread siblings, two sessions streaming the 870 KB dense weight
// matrix per frame swing between ~16k and ~21k frames/s from minute to
// minute, while one session holds steady.
var workloads = map[string]workload{
	"decode-dense":  {setup: setupDecodeDense, sessions: 1},
	"decode-pruned": {setup: setupDecodePruned, sessions: 2},
	"serve-pruned":  {setup: setupServePruned, sessions: 2},
	"retrain-p90":   {setup: setupRetrain, sessions: 1},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// runWorkload sets the workload up o.setups times (keeping the last),
// then runs the untraced or traced window.
func runWorkload(o options, w workload) (*report, error) {
	rep := newReport()
	var (
		r      runner
		setups []float64
		stages = map[string][]float64{}
	)
	for i := 0; i < o.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
		}
		// Collect the previous set-up's heap outside the timed region,
		// so neither its garbage nor the collector's timing leaks into
		// the next set-up's time or the peak RSS.
		runtime.GC()
		st := map[string]float64{}
		t0 := time.Now()
		next, err := w.setup(o, st)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, v := range st {
			stages[k] = append(stages[k], v)
		}
		r = next
	}
	defer r.close()
	runtime.GC()

	if o.trace {
		for k, v := range stages {
			rep.set(k, median(v))
		}
		if err := r.traced(o, rep); err != nil {
			return nil, err
		}
	} else {
		rep.set("setup_s", median(setups))
		if err := r.measure(o, rep); err != nil {
			return nil, err
		}
	}
	return rep, r.close()
}

// emit prints the human-readable lines, writes the full record under
// o.outDir, and prints the result object as the last line.
func emit(o options, rep *report) error {
	prov, err := provenance(o)
	if err != nil {
		return err
	}
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	out := result{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range set {
		v, ok := rep.values[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report metric %s", o.workload, m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", o.workload)
	}

	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	for _, m := range set {
		fmt.Printf("%-36s %16.6g %s\n", m.name, rep.values[m.name], m.unit)
	}
	for _, k := range sortedKeys(rep.extra) {
		fmt.Printf("%-36s %16.6g (extra)\n", k, rep.extra[k])
	}
	for _, f := range rep.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}

	record := map[string]any{"provenance": prov, "result": out, "extra": rep.extra, "failures": rep.failures}
	dir := filepath.Join(o.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, b2i(o.trace))
	rj, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(rj, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
