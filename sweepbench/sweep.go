package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
)

// sweepReport is what one child process reports for one cold sweep.
// Times are wall-clock Unix nanoseconds so the parent can measure set-up
// from the moment it started the process.
type sweepReport struct {
	FirstStartNs int64   `json:"first_start_ns"`
	LastEndNs    int64   `json:"last_end_ns"`
	FlowSeconds  float64 `json:"flow_seconds"`
	AllocMB      float64 `json:"alloc_mb"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	Jobs         int     `json:"jobs"`
	// Failures lists one line per failed job (error or failed check).
	Failures []string `json:"failures,omitempty"`
	Digest   string   `json:"digest"`
	SimTput  float64  `json:"sim_tput_kbps"`
	SimDelay float64  `json:"sim_delay95_ms"`
	// Layer holds the traced run's per-layer metrics (traced runs only).
	Layer map[string]float64 `json:"layer,omitempty"`
}

// makespan is the wait a user sees: first job start to last result.
func (r sweepReport) makespan() time.Duration {
	return time.Duration(r.LastEndNs - r.FirstStartNs)
}

func (r sweepReport) nsPerFlowSecond() float64 {
	return float64(r.makespan().Nanoseconds()) / r.FlowSeconds
}

// jobSpans records each job's wall-clock interval around its Run call —
// the engine layer's spans, taken from outside the engine. Each job
// writes only its own index, and engine.Run returns after every job has,
// so the slices need no lock.
type jobSpans struct {
	start, end []time.Time
	errs       []error
}

// wrap instruments every job. A job's error is recorded as a failed job
// and not returned, so one failing job cannot cancel the rest of the
// batch and every job is attempted.
func (s *jobSpans) wrap(jobs []engine.Job) {
	s.start = make([]time.Time, len(jobs))
	s.end = make([]time.Time, len(jobs))
	s.errs = make([]error, len(jobs))
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(ctx context.Context, ws *engine.WorkerState) error {
			s.start[i] = time.Now()
			s.errs[i] = run(ctx, ws)
			s.end[i] = time.Now()
			return nil
		}
	}
}

// bounds returns the earliest start and latest end over the jobs that ran.
func (s *jobSpans) bounds() (first, last time.Time) {
	for i := range s.start {
		if s.start[i].IsZero() {
			continue
		}
		if first.IsZero() || s.start[i].Before(first) {
			first = s.start[i]
		}
		if s.end[i].After(last) {
			last = s.end[i]
		}
	}
	return first, last
}

// durations returns every job's span length.
func (s *jobSpans) durations() []float64 {
	out := make([]float64, 0, len(s.start))
	for i := range s.start {
		if !s.start[i].IsZero() {
			out = append(out, s.end[i].Sub(s.start[i]).Seconds())
		}
	}
	return out
}

// childOptions configures one child process.
type childOptions struct {
	workload workload
	specFile string
	workers  int
	traced   bool
	outDir   string // traced runs write the CPU profile and spans here
	// setupOnly ends the process as the first job starts, reporting only
	// that instant: a set-up sample without the sweep.
	setupOnly bool
}

// runChild executes one cold sweep exactly as `sproutbench -scenario`
// does — load the spec file, scenario.CompileJobs, engine.Run — and
// reports the end-to-end figures and the output checks. A traced child
// also profiles the sweep, re-runs it warm and runs the layer probes.
func runChild(opt childOptions) (sweepReport, error) {
	var rep sweepReport
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var tr *tracer
	if opt.traced {
		var err error
		if tr, err = startTracer(opt.outDir, opt.workload.name); err != nil {
			return rep, err
		}
	}

	loadEnd := tr.span("scenario.load", "")
	specs, err := scenario.LoadFile(opt.specFile)
	loadEnd()
	if err != nil {
		return rep, err
	}
	compileEnd := tr.span("scenario.compile", "")
	jobs, results, cache := scenario.CompileJobs(specs, nil)
	compileEnd()
	spans := &jobSpans{}
	spans.wrap(jobs)
	if opt.setupOnly {
		exitAtFirstJob(jobs)
	}
	eng := engine.New(opt.workers)
	runEnd := tr.span("engine.run", "")
	_, err = eng.Run(context.Background(), jobs)
	runEnd()
	if err != nil {
		return rep, fmt.Errorf("engine: %w", err)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	norm := normalizeAll(specs)
	first, last := spans.bounds()
	rep.FirstStartNs, rep.LastEndNs = first.UnixNano(), last.UnixNano()
	rep.FlowSeconds = flowSeconds(norm)
	rep.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rep.PeakRSSMB = peakRSSMB()
	rep.Jobs = len(jobs)
	rep.Failures = checkResults(opt.workload, norm, results, spans.errs)
	if rep.Digest, err = digest(results); err != nil {
		return rep, err
	}
	rep.SimTput, rep.SimDelay = simMetrics(results)

	if tr != nil {
		layer, failures, err := tr.finish(opt, spans, specs, norm, results, cache, eng, rep)
		if err != nil {
			return rep, err
		}
		rep.Layer = layer
		rep.Failures = append(rep.Failures, failures...)
	}
	return rep, nil
}

// exitAtFirstJob makes the first job to start report its start time and
// end the process.
func exitAtFirstJob(jobs []engine.Job) {
	var once sync.Once
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(ctx context.Context, ws *engine.WorkerState) error {
			once.Do(func() {
				rep := sweepReport{FirstStartNs: time.Now().UnixNano()}
				if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
					os.Exit(1)
				}
				os.Exit(0)
			})
			return run(ctx, ws)
		}
	}
}

// normalizeAll returns the normalized specs; a spec that fails to
// normalize keeps its raw form (its job fails and is counted).
func normalizeAll(specs []scenario.Spec) []scenario.Spec {
	out := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		n, err := s.Normalize()
		if err != nil {
			n = s
		}
		out[i] = n
	}
	return out
}

// checkResults returns one line per failed job. A job fails when it
// returned an error, reports a different flow count than its spec, or
// reports a utilization outside [0, 1] or a throughput that is negative
// or not finite. On the paper matrix, a Sprout job also fails when its
// delay95 is not below Cubic's on the same link and direction (§5).
// Nothing is compared against a pinned digest: fidelity fixes must pass.
func checkResults(w workload, specs []scenario.Spec, results []scenario.Result, errs []error) []string {
	bad := make([]string, len(results))
	for i, res := range results {
		label := specs[i].Label()
		switch {
		case errs[i] != nil:
			bad[i] = fmt.Sprintf("%s: %v", label, errs[i])
		case len(res.Flows) != specFlows(specs[i]):
			bad[i] = fmt.Sprintf("%s: %d flows reported, spec has %d", label, len(res.Flows), specFlows(specs[i]))
		case !(res.Metrics.Utilization >= 0 && res.Metrics.Utilization <= 1):
			bad[i] = fmt.Sprintf("%s: utilization %v outside [0, 1]", label, res.Metrics.Utilization)
		case !validRate(res.Metrics.ThroughputBps):
			bad[i] = fmt.Sprintf("%s: throughput %v", label, res.Metrics.ThroughputBps)
		default:
			for _, f := range res.Flows {
				if !validRate(f.ThroughputBps) {
					bad[i] = fmt.Sprintf("%s: flow %d throughput %v", label, f.Flow, f.ThroughputBps)
					break
				}
			}
		}
	}
	if w.sproutOrdering {
		orderingFailures(specs, results, bad)
	}
	var out []string
	for _, b := range bad {
		if b != "" {
			out = append(out, b)
		}
	}
	return out
}

func validRate(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// orderingFailures marks the Sprout job of every link and direction
// whose delay95 is not below Cubic's.
func orderingFailures(specs []scenario.Spec, results []scenario.Result, bad []string) {
	type path struct{ link, dir string }
	sprout, cubic := map[path]int{}, map[path]int{}
	for i, s := range specs {
		if len(s.Groups) != 1 {
			continue
		}
		p := path{s.Link, s.Direction}
		switch s.Groups[0].Scheme {
		case "sprout":
			sprout[p] = i
		case "cubic":
			cubic[p] = i
		}
	}
	for p, si := range sprout {
		ci, ok := cubic[p]
		if !ok || bad[si] != "" || bad[ci] != "" {
			continue
		}
		if s, c := results[si].Delay95, results[ci].Delay95; s >= c {
			bad[si] = fmt.Sprintf("%s: sprout delay95 %v not below cubic's %v", specs[si].Label(), s, c)
		}
	}
}

// digest hashes every result's shard-stream record in job order, so two
// sweeps agree exactly when they computed the same outputs.
func digest(results []scenario.Result) (string, error) {
	h := sha256.New()
	for i, r := range results {
		rec, err := scenario.EncodeResult(i, r)
		if err != nil {
			return "", err
		}
		h.Write(rec.Data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// simMetrics returns the mean per-flow throughput (kbit/s) and the
// median over flows of each flow's delay95 (ms).
func simMetrics(results []scenario.Result) (tputKbps, delay95Ms float64) {
	var sum float64
	var delays []float64
	for _, r := range results {
		for _, f := range r.Flows {
			sum += f.ThroughputBps / 1000
			delays = append(delays, float64(f.Delay95)/float64(time.Millisecond))
		}
	}
	if len(delays) == 0 {
		return 0, 0
	}
	return sum / float64(len(delays)), median(delays)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
