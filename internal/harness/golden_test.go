package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sprout/internal/scenario"
)

// goldenMatrixHash pins the bit-exact result of a reduced matrix run. It was
// recorded before the allocation-free event-loop/inference rework (PR 3) and
// must never change for this (duration, skip, seed, schemes) tuple: the hash
// covers the raw IEEE-754 bits of every cell, so any floating-point or
// event-ordering drift in the hot paths shows up here as a failure.
const goldenMatrixHash = "3764c685f79a19e50f4d096226e15bab75bed0979dfc936eda47060ac4d2a9f3"

// goldenLinks are the two links whose cells feed the hash (one LTE, one 3G,
// covering both trace shapes).
var goldenLinks = []string{"Verizon LTE Downlink", "T-Mobile 3G (UMTS) Uplink"}

var goldenSchemes = []string{"sprout", "cubic"}

// hashCells serializes cells bit-exactly (Float64bits, not decimal
// formatting) and returns the SHA-256 hex digest.
func hashCells(m *Matrix, links, schemes []string) string {
	var b strings.Builder
	for _, l := range links {
		row, ok := m.Cells[l]
		if !ok {
			fmt.Fprintf(&b, "%s:MISSING\n", l)
			continue
		}
		for _, s := range schemes {
			c := row[s]
			fmt.Fprintf(&b, "%s|%s|%016x|%016x|%016x|%016x\n",
				l, s,
				math.Float64bits(c.ThroughputKbps),
				math.Float64bits(c.SelfInflictedMs),
				math.Float64bits(c.Utilization),
				math.Float64bits(c.MeanDelayMs))
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenScenarioHash pins the bit-exact result of a heterogeneous-flows
// scenario spec (a Cubic bulk flow competing with a Skype call on the same
// bottleneck), recorded before the experiment-layer world-reuse rework
// (PR 4). It checks the scenario path — multi-flow dispatch, per-flow
// metrics, Jain index — which the matrix hash does not reach.
const goldenScenarioHash = "0530541e1c45c40a49d134f00d0b80bf72691bd2a18a4022c9c9be092e389c78"

// goldenScenarioJSON is the pinned spec, exercised through the JSON
// scenario format end to end.
const goldenScenarioJSON = `{
  "defaults": {"link": "Verizon LTE", "duration": "8s", "skip": "2s", "seed": 7},
  "scenarios": [
    {"name": "cubic vs skype", "groups": [
      {"scheme": "cubic", "count": 1},
      {"scheme": "skype", "count": 1}
    ]}
  ]
}`

// hashScenarioResults serializes every numeric outcome of the scenario runs
// bit-exactly (Float64bits / integer nanoseconds, not decimal formatting).
func hashScenarioResults(results []scenario.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s|%016x|%d|%d|%016x|%d|%016x\n",
			r.Spec.Label(),
			math.Float64bits(r.Metrics.ThroughputBps),
			r.Metrics.Delay95,
			r.Metrics.MeanDelay,
			math.Float64bits(r.Metrics.Utilization),
			r.Delay95,
			math.Float64bits(r.JainIndex))
		for _, f := range r.Flows {
			fmt.Fprintf(&b, "  flow %d %s|%016x|%d\n",
				f.Flow, f.Scheme, math.Float64bits(f.ThroughputBps), f.Delay95)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestScenarioGoldenHash asserts that a JSON scenario spec with
// heterogeneous flow groups produces byte-identical results to the recorded
// baseline, at both serial and parallel worker counts.
func TestScenarioGoldenHash(t *testing.T) {
	specs, err := scenario.Parse(strings.NewReader(goldenScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, _, err := scenario.RunAll(t.Context(), specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashScenarioResults(results); got != goldenScenarioHash {
			t.Errorf("workers=%d: scenario hash = %s, want %s (outputs are not byte-identical to the recorded baseline)",
				workers, got, goldenScenarioHash)
		}
	}
}

// goldenHandoverHash pins the bit-exact result of the streaming-process
// scenario family introduced with the DeliveryProcess refactor (PR 5): a
// Sprout flow riding an LTE→3G handover with a mid-run outage window,
// driven entirely by on-demand processes (no materialized trace exists
// anywhere in the run). Recorded when the family was introduced; any
// drift in the process combinators, the link's pull path or the online
// omniscient/capacity metrics shows up here.
const goldenHandoverHash = "cbda0343861567db3fe029df9e2cf9825f4884ed15c3b7d26c421a6e37573623"

// goldenHandoverJSON is the pinned spec, exercised through the JSON
// process grammar end to end.
const goldenHandoverJSON = `{
  "defaults": {"duration": "8s", "skip": "2s", "seed": 7},
  "scenarios": [
    {"name": "lte to 3g handover", "scheme": "sprout",
     "process": {"handover": [
        {"model": "Verizon-LTE-down", "until": "4s"},
        {"model": "TMobile-3G-down", "scale": 1.2}
      ], "outages": [{"start": "6s", "end": "6.5s"}]},
     "feedback_process": {"model": "Verizon-LTE-up"}}
  ]
}`

// TestHandoverGoldenHash asserts the streaming handover scenario produces
// byte-identical results to the recorded baseline at serial and parallel
// worker counts.
func TestHandoverGoldenHash(t *testing.T) {
	specs, err := scenario.Parse(strings.NewReader(goldenHandoverJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, _, err := scenario.RunAll(t.Context(), specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashScenarioResults(results); got != goldenHandoverHash {
			t.Errorf("workers=%d: handover hash = %s, want %s (streaming outputs drifted from the recorded baseline)",
				workers, got, goldenHandoverHash)
		}
	}
}

// TestMatrixGoldenHash asserts that the matrix outputs on two canonical
// links are byte-identical to the pre-PR baseline at a fixed seed, at both
// serial and parallel worker counts.
func TestMatrixGoldenHash(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m, err := RunMatrix(Options{
			Duration: 8 * time.Second, Skip: 2 * time.Second, Seed: 7, Workers: workers,
		}, goldenSchemes)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range goldenLinks {
			if _, ok := m.Cells[l]; !ok {
				t.Fatalf("link %q missing from matrix (links: %v)", l, m.Links)
			}
		}
		if got := hashCells(m, goldenLinks, goldenSchemes); got != goldenMatrixHash {
			t.Errorf("workers=%d: matrix hash = %s, want %s (outputs are not byte-identical to the recorded baseline)",
				workers, got, goldenMatrixHash)
		}
	}
}

// goldenFiguresHash pins the bit-exact outputs of the figure and table
// builders that no other golden hash reaches: Fig1's timeseries, the
// Fig9 confidence sweep, the §5.6 loss table, the §5.7 tunnel comparison
// and the multi-Sprout sharing experiment. Recorded while those builders
// still injected GenerateTracePair traces into their specs, so it also
// proves that canonical Link specs bound to the shared trace cache run on
// the very same bytes.
const goldenFiguresHash = "b20c8dfe6d5dc77281092e6e7f94e8e8054ee53b5c1e924dade56d3b4b0b64cb"

// hashFigures runs the five builders and serializes every number they
// return bit-exactly.
func hashFigures(t *testing.T, opt Options) string {
	t.Helper()
	var b strings.Builder
	f64 := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

	fig1, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig1 {
		fmt.Fprintf(&b, "fig1|%d|%s|%s|%s|%s|%s\n", p.Second, f64(p.CapacityKbps),
			f64(p.SproutKbps), f64(p.SkypeKbps), f64(p.SproutDelayMs), f64(p.SkypeDelayMs))
	}
	fig9, err := Fig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig9 {
		fmt.Fprintf(&b, "fig9|%s|%s|%s|%s|%s\n", c.Scheme, f64(c.ThroughputKbps),
			f64(c.SelfInflictedMs), f64(c.Utilization), f64(c.MeanDelayMs))
	}
	loss, err := LossTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range loss {
		fmt.Fprintf(&b, "loss|%s|%d|%s|%s\n", r.Direction, r.LossPct, f64(r.ThroughputKbps), f64(r.SelfInflictedMs))
	}
	tun, err := RunTunnelComparison(opt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "tunnel|%s|%s|%s|%s|%d|%d|%d\n", f64(tun.CubicKbpsDirect), f64(tun.CubicKbpsTunnel),
		f64(tun.SkypeKbpsDirect), f64(tun.SkypeKbpsTunnel), tun.SkypeDelay95Direct, tun.SkypeDelay95Tunnel,
		tun.TunnelHeadDrops)
	multi, err := RunMultiSprout(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range multi.PerFlowKbps {
		fmt.Fprintf(&b, "multi|flow|%s\n", f64(k))
	}
	fmt.Fprintf(&b, "multi|%s|%s|%d|%s|%d\n", f64(multi.JainIndex), f64(multi.AggregateKbps),
		multi.Delay95, f64(multi.SoloKbps), multi.SoloDelay95)

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestFiguresGoldenHash asserts Fig1, Fig9, LossTable,
// RunTunnelComparison and RunMultiSprout produce byte-identical outputs to
// the recorded baseline at serial and parallel worker counts.
func TestFiguresGoldenHash(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opt := Options{Duration: 15 * time.Second, Skip: 4 * time.Second, Seed: 7, Workers: workers}
		if got := hashFigures(t, opt); got != goldenFiguresHash {
			t.Errorf("workers=%d: figures hash = %s, want %s (figure outputs drifted from the recorded baseline)",
				workers, got, goldenFiguresHash)
		}
	}
}
