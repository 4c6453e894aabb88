// Command perfbench is the repository's standing benchmark. It drives real
// asks through internal/service in process (bank-small, bank-large) and
// through inferad nodes behind an internal/fleet router (serve-mix),
// verifies every checkable answer against an oracle computed straight
// from the gio files, and prints one JSON result line.
//
//	perfbench --workload bank-small --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run instead. --selftest
// runs the benchmark's own smoke checks. README.md in this directory
// documents the metrics, the workloads and the first baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one named workload: setup, a measured window and the
// answer checks. trace selects the per-layer run.
type workload func(seed int64, window time.Duration, trace bool) (*result, error)

var workloads = map[string]workload{
	"bank-small": func(seed int64, window time.Duration, trace bool) (*result, error) {
		return runBank(bankSmall, seed, window, trace)
	},
	"bank-large": func(seed int64, window time.Duration, trace bool) (*result, error) {
		return runBank(bankLarge, seed, window, trace)
	},
	"serve-mix": runServeMix,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: bank-small, bank-large or serve-mix")
		seed     = flag.Int64("seed", 1, "workload seed: ensemble, ask stream, hot set and rewrite schedule derive from it")
		seconds  = flag.Float64("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		selftest = flag.Bool("selftest", false, "run the benchmark's smoke checks and exit")
		genDir   = flag.String("gen-dir", "", "internal: generate an ensemble into this directory and exit")
		genHalos = flag.Int("gen-halos", 0, "internal: halos per run of the generated ensemble")
	)
	flag.Parse()
	if *genDir != "" {
		if err := generate(*genDir, *genHalos, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *selftest {
		if err := selfTest(); err != nil {
			fatalf("selftest: %v", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: selftest passed")
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want bank-small, bank-large or serve-mix)", *name)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := runIsolated(func() (*result, error) {
		return run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	})
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if err := checkMetrics(res, *trace == 1); err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// runIsolated gives one run a private work directory under runsDir,
// with the run's temp files (the sandbox's per-execution directories)
// inside it, and empties it afterwards.
func runIsolated(fn func() (*result, error)) (*result, error) {
	dir, err := newRunDir()
	if err != nil {
		return nil, err
	}
	defer emptyRunDir(dir)
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return nil, err
	}
	oldTmp, hadTmp := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", tmp)
	defer func() {
		if hadTmp {
			os.Setenv("TMPDIR", oldTmp)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()
	runDir = dir
	return fn()
}

// runDir is the current run's work directory.
var runDir string

// checkMetrics refuses a result whose metric set is not the declared one
// or holds a non-finite value.
func checkMetrics(res *result, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		if m.Unit == "" {
			return fmt.Errorf("metric %s has no unit", name)
		}
	}
	var missing, extra []string
	for _, n := range want {
		if _, ok := res.Metrics[n.name]; !ok {
			missing = append(missing, n.name)
		}
	}
	known := map[string]bool{}
	for _, n := range want {
		known[n.name] = true
	}
	for n := range res.Metrics {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metric set mismatch: missing %v, undeclared %v", missing, extra)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no asks attempted")
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
