// Command sweepbench is the repository's benchmark. Each run measures one
// named workload: a closed batch of experiment specs swept cold through
// the path `sproutbench -scenario` takes (spec file, scenario.CompileJobs,
// engine.Run on a pinned worker count), one fresh child process per
// sweep. It checks the outputs and prints the end-to-end metrics, or,
// with -trace 1, the per-layer metrics of a profiled and probed run.
// README.md documents the workloads, the metrics and how to run it;
// run.sh builds it from source and starts it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"sprout/internal/scenario"
)

// pinnedWorkers is the engine's worker count and the child's GOMAXPROCS.
// Allocation and makespan both depend on it, so it is fixed rather than
// taken from the machine (lowered only where fewer CPUs exist).
const pinnedWorkers = 2

// minSweeps is the fewest cold sweeps one untraced run measures, so its
// medians always rest on at least three samples.
const minSweeps = 3

// setupSamples is how many extra processes an untraced run starts only to
// time set-up (they exit as the first job starts), so setup_s is a median
// over many samples at little cost.
const setupSamples = 10

// runDeadline bounds a whole run, children included.
const runDeadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (paper-matrix, cell-sprout, cell-tcp)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 40, "measure cold sweeps for this long (untraced runs)")
		traced  = flag.Int("trace", 0, "1: one profiled, probed run reporting per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "sweepbench"), "directory for generated specs, profiles and spans")
		child   = flag.Bool("child", false, "internal: run one sweep of -spec and report it as JSON")
		spec    = flag.String("spec", "", "internal: the child's spec file")
		setup   = flag.Bool("setup-only", false, "internal: the child exits as its first job starts")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *child {
		rep, err := runChild(childOptions{
			workload: w, specFile: *spec, workers: runtime.GOMAXPROCS(0),
			traced: *traced == 1, outDir: *outDir, setupOnly: *setup,
		})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be positive, got %d", *seconds))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	p := &parent{w: w, seed: *seed, outDir: *outDir, workers: workerCount(runtime.NumCPU())}
	var res result
	if *traced == 1 {
		res, err = p.tracedRun(ctx)
	} else {
		res, err = p.untracedRun(ctx, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(p.environment())
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepbench:", err)
	os.Exit(1)
}

// workerCount pins the worker count, never above the CPUs available.
func workerCount(nproc int) int {
	return max(1, min(pinnedWorkers, nproc))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type parent struct {
	w        workload
	seed     int64
	outDir   string
	workers  int
	specFile string
}

// environment records what the figures depend on besides the code.
func (p *parent) environment() string {
	return fmt.Sprintf("# sweepbench workload=%s seed=%d workers=%d gomaxprocs=%d nproc=%d go=%s commit=%s",
		p.w.name, p.seed, p.workers, p.workers, runtime.NumCPU(), runtime.Version(), revision())
}

// writeSpecs generates the workload's spec grid from the seed and writes
// it as a scenario file: the only input the measured program receives.
func (p *parent) writeSpecs() error {
	b, err := json.MarshalIndent(scenario.File{Scenarios: p.w.specs(p.seed)}, "", " ")
	if err != nil {
		return err
	}
	p.specFile = filepath.Join(p.outDir, fmt.Sprintf("%s-%d.json", p.w.name, p.seed))
	return os.WriteFile(p.specFile, b, 0o644)
}

// Child process modes.
const (
	sweepPlain = iota
	sweepTraced
	sweepSetupOnly
)

// sweep runs one cold sweep in a fresh child process and returns its
// report with the set-up time: from starting the process to the first
// job's start.
func (p *parent) sweep(ctx context.Context, mode int) (sweepReport, float64, error) {
	var rep sweepReport
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	args := []string{"-child", "-workload", p.w.name, "-spec", p.specFile, "-out", p.outDir}
	switch mode {
	case sweepTraced:
		args = append(args, "-trace", "1")
	case sweepSetupOnly:
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p.workers))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return rep, 0, fmt.Errorf("sweep child: %w", err)
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &rep); err != nil {
		return rep, 0, fmt.Errorf("sweep child output: %w", err)
	}
	setup := float64(rep.FirstStartNs-start.UnixNano()) / 1e9
	if mode == sweepSetupOnly {
		return rep, setup, nil
	}
	fmt.Fprintf(os.Stderr, "sweepbench: %s sweep: %d jobs, makespan %v, %.1f ns/flow-s, setup %.4fs, %d failed\n",
		p.w.name, rep.Jobs, rep.makespan().Round(time.Millisecond), rep.nsPerFlowSecond(), setup, len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "sweepbench: FAILED", f)
	}
	return rep, setup, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// tally counts attempted and failed jobs over sweeps that must all have
// computed the same outputs (same seed): a sweep whose digest differs
// from the first counts as one more failure.
func tally(reps []sweepReport) (attempted, failed int) {
	for _, r := range reps {
		attempted += r.Jobs
		failed += len(r.Failures)
		if r.Digest != reps[0].Digest {
			failed++
			fmt.Fprintln(os.Stderr, "sweepbench: FAILED sweep results differ between runs of one seed")
		}
	}
	return attempted, failed
}

// untracedRun measures cold sweeps while another one (as long as the
// longest so far) still fits the time budget, and at least minSweeps,
// timing the calibration kernel before each sweep and after the last;
// then it takes the extra set-up samples and reports the median of each
// end-to-end metric, the host times (ns_per_flow_s, setup_s) scaled to
// the reference host speed (calibrate.go).
func (p *parent) untracedRun(ctx context.Context, budget time.Duration) (result, error) {
	if err := p.writeSpecs(); err != nil {
		return result{}, err
	}
	var reps []sweepReport
	var nsPer, setup, rss, alloc, cal []float64
	var longest time.Duration
	start := time.Now()
	for len(reps) < minSweeps || time.Since(start)+longest <= budget {
		t0 := time.Now()
		cal = append(cal, calibrate(p.workers))
		rep, s, err := p.sweep(ctx, sweepPlain)
		if err != nil {
			return result{}, err
		}
		longest = max(longest, time.Since(t0))
		reps = append(reps, rep)
		nsPer = append(nsPer, rep.nsPerFlowSecond())
		setup = append(setup, s)
		rss = append(rss, rep.PeakRSSMB)
		alloc = append(alloc, rep.AllocMB)
	}
	cal = append(cal, calibrate(p.workers))
	for i := 0; i < setupSamples; i++ {
		_, s, err := p.sweep(ctx, sweepSetupOnly)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, s)
	}
	attempted, failed := tally(reps)
	fmt.Fprintf(os.Stderr, "sweepbench: %d sweeps: median %.1f ns/flow-s, setup %.5fs; calibration median %.5fs over %d\n",
		len(reps), median(nsPer), median(setup), median(cal), len(cal))
	values := map[string]float64{
		"ns_per_flow_s":  calibrated(median(nsPer), median(cal)),
		"setup_s":        calibrated(median(setup), median(cal)),
		"peak_rss_mb":    median(rss),
		"alloc_mb":       median(alloc),
		"sim_tput_kbps":  reps[0].SimTput,
		"sim_delay95_ms": reps[0].SimDelay,
	}
	metrics := map[string]metric{}
	for _, m := range endToEndMetrics {
		metrics[m.name] = metric{values[m.name], m.unit}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// tracedRun makes one untraced and one traced sweep of the same inputs
// and reports the traced child's per-layer metrics plus the tracing
// overhead. Tracing must not change the results.
func (p *parent) tracedRun(ctx context.Context) (result, error) {
	if err := p.writeSpecs(); err != nil {
		return result{}, err
	}
	plain, _, err := p.sweep(ctx, sweepPlain)
	if err != nil {
		return result{}, err
	}
	traced, _, err := p.sweep(ctx, sweepTraced)
	if err != nil {
		return result{}, err
	}
	attempted, failed := tally([]sweepReport{plain, traced})
	layer := traced.Layer
	layer["tracing.traced_ns_per_flow_s"] = traced.nsPerFlowSecond()
	layer["tracing.overhead_ns_per_flow_s"] = traced.nsPerFlowSecond() - plain.nsPerFlowSecond()
	metrics := map[string]metric{}
	for _, name := range perLayerMetrics() {
		v, ok := layer[name]
		if !ok {
			return result{}, fmt.Errorf("traced run did not report %s", name)
		}
		metrics[name] = metric{v, unitOf(name)}
	}
	writeLayerTable(os.Stderr, p.w.name, layer)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// revision identifies the measured code: the VCS revision stamped into
// the build or, when built outside a repository, a digest of the Go
// sources under the working directory (the checkout root).
func revision() string {
	if rev := vcsRevision(); rev != "" {
		return rev
	}
	d, err := sourceDigest(".")
	if err != nil {
		return "unknown"
	}
	return "tree:" + d
}
