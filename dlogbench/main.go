// Command dlogbench is the end-to-end and per-layer benchmark of dlogd.
// It starts the dlogd binary built from this checkout as a child
// process, drives it over loopback HTTP with at most two connections,
// checks every answer against oracles computed independently of the
// engine, and prints one JSON result line:
//
//	dlogbench -dlogd BIN -work DIR --workload plan-load|serve-read|serve-write \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, from a scrape of dlogd's
// /metrics and session stats plus an in-process replay of the
// workload's operations through each layer's public entry points.
// --steady N runs the workload N times with consecutive seeds, each in
// a child process, and prints the median, quartiles, min and max of
// every end-to-end metric. README.md describes the workloads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric names and units; BENCHMARK.json lists the same names.
var (
	endToEnd = []struct{ name, unit string }{
		{"ops_per_s", "1/s"},
		{"op_p50_ms", "ms"},
		{"op_tail_ms", "ms"},
		{"read_p50_ms", "ms"},
		{"setup_s", "s"},
		{"peak_rss_mb", "MB"},
	}
	perLayer = []struct{ name, unit string }{
		{"serve.query_p50_us", "us"},
		{"serve.read_unattributed_p50_us", "us"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.commit_p50_us", "us"},
		{"serve.commit_wait_p50_us", "us"},
		{"serve.write_unattributed_p50_us", "us"},
		{"serve.recompute_share", "ratio"},
		{"serve.reader_lateness_ms", "ms"},
		{"durable.fsync_p50_us", "us"},
		{"durable.fsyncs_per_write", "count"},
		{"durable.wal_bytes_per_write", "bytes"},
		{"durable.checkpoints_per_1k_writes", "count"},
		{"durable.checkpoint_mean_ms", "ms"},
		{"eval.zset_us_per_commit", "us"},
		{"eval.zset_ns_per_derived", "ns"},
		{"eval.derived_per_write", "count"},
		{"eval.probes_per_write", "count"},
		{"eval.recompute_ms", "ms"},
		{"eval.fixpoint_ms", "ms"},
		{"eval.inserted_per_derived", "ratio"},
		{"eval.probes_per_bound", "ratio"},
		{"planner.plan_ms", "ms"},
		{"planner.compile_ms", "ms"},
		{"planner.oracle_gap", "ratio"},
		{"parser.load_parse_ms", "ms"},
		{"parser.goal_parse_us", "us"},
		{"storage.lookup_us", "us"},
		{"storage.snapshot_us", "us"},
	}
)

// env is one benchmark run: its settings, its counters, and the
// metrics it measured.
type env struct {
	dlogd   string
	dir     string // private work directory of this run
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int
	firstFailure      error
	checkErrs         []error

	e2e   map[string]float64
	layer map[string]float64
	notes []string // human-readable lines printed before the result
}

// fail counts one failed operation.
func (e *env) fail(err error) {
	e.failed++
	if e.firstFailure == nil {
		e.firstFailure = err
	}
}

// check records a correctness violation.
func (e *env) check(err error) {
	if err != nil {
		e.checkErrs = append(e.checkErrs, err)
	}
}

var workloads = map[string]func(*env) error{
	"plan-load":   planLoad,
	"serve-read":  serveRead,
	"serve-write": serveWrite,
}

func main() {
	bin := flag.String("dlogd", "", "dlogd binary to benchmark")
	work := flag.String("work", "", "work directory for dlogd data directories")
	workload := flag.String("workload", "", "plan-load, serve-read or serve-write")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics instead of end-to-end ones")
	steady := flag.Int("steady", 0, "run the workload this many times with consecutive seeds and print the spread of every metric")
	flag.Parse()
	if err := run(*bin, *work, *workload, *seed, *seconds, *trace, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "dlogbench:", err)
		os.Exit(1)
	}
}

func run(bin, work, workload string, seed int64, seconds, trace, steady int) error {
	wl, ok := workloads[workload]
	switch {
	case bin == "" || work == "":
		return fmt.Errorf("-dlogd and -work are required")
	case !ok:
		return fmt.Errorf("unknown workload %q", workload)
	case seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if steady > 0 {
		return steadiness(bin, work, workload, seed, seconds, trace, steady)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{
		dlogd: bin, dir: dir, seed: seed, trace: trace == 1,
		seconds: time.Duration(seconds) * time.Second,
		e2e:     map[string]float64{}, layer: map[string]float64{},
	}
	if err := wl(e); err != nil {
		return err
	}
	if e.firstFailure != nil {
		fmt.Fprintf(os.Stderr, "dlogbench: %d of %d operations failed; first: %v\n", e.failed, e.attempted, e.firstFailure)
	}
	for _, err := range e.checkErrs {
		fmt.Fprintln(os.Stderr, "dlogbench: CHECK FAILED:", err)
	}
	res := result{Correct: len(e.checkErrs) == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	names, values := endToEnd, e.e2e
	if e.trace {
		names, values = perLayer, e.layer
	}
	for _, m := range names {
		v := values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, n := range e.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// steadiness runs the workload n times, each in a child process with
// its own seed, and prints every metric's median, quartiles, min, max
// and quartile spread as a share of the median.
func steadiness(bin, work, workload string, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var fails []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-dlogd", bin, "-work", work, "--workload", workload,
			"--seed", strconv.FormatInt(s, 10), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var res result
		sc := bufio.NewScanner(bytes.NewReader(out))
		var last string
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(os.Stderr, last)
			}
			last = sc.Text()
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		fails = append(fails, fmt.Sprintf("%d/%d correct=%v", res.Failed, res.Attempted, res.Correct))
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs from seed %d, %ds each; failed/attempted: %s\n", workload, n, seed, seconds, strings.Join(fails, " "))
	fmt.Printf("%-34s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range names {
		xs := vals[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		sort.Float64s(xs)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-34s %12.4f %12.4f %12.4f %12.4f %12.4f %8.3f  %s\n",
			name, med, q1, q3, xs[0], xs[len(xs)-1], spread, units[name])
	}
	return nil
}

// spawnDir makes a fresh directory under the run's work directory.
func (e *env) spawnDir(name string) (string, error) {
	d := filepath.Join(e.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// measureSetup runs setup nine times, each spawning a dlogd and
// loading it, and records the median duration as setup_s. It returns
// the last set-up's dlogd, which the measured phase then uses, and
// stops the others. A set-up takes 0.05-0.3 s, so a single one mostly
// measures process start-up jitter.
func (e *env) measureSetup(setup func(i int) (*daemon, error)) (*daemon, error) {
	const reps = 9
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := setup(i)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			e.e2e["setup_s"] = median(times)
			return d, nil
		}
		d.stop()
	}
}
