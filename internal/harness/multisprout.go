package harness

import (
	"time"

	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// MultiSproutResult reports N concurrent Sprout sessions sharing one
// bottleneck queue — the configuration §7 of the paper explicitly leaves
// unevaluated ("We have not evaluated the performance of multiple Sprouts
// sharing a queue"). This experiment fills that gap.
type MultiSproutResult struct {
	// PerFlowKbps is each session's delivered throughput.
	PerFlowKbps []float64
	// JainIndex is Jain's fairness index over the per-flow throughputs
	// (1.0 = perfectly fair).
	JainIndex float64
	// AggregateKbps is the combined throughput.
	AggregateKbps float64
	// Delay95 is the 95% end-to-end delay of the combined stream.
	Delay95 time.Duration
	// SoloKbps and SoloDelay95 are a single session's numbers on the
	// same traces, for comparison.
	SoloKbps    float64
	SoloDelay95 time.Duration
}

// RunMultiSprout runs n concurrent Sprout bulk sessions over one shared
// Verizon LTE downlink (plus a solo reference run) and reports fairness
// and delay. Both runs are one-line scenario specs differing only in the
// flow count, executed as parallel engine jobs over the same read-only
// traces.
func RunMultiSprout(opt Options, n int) (MultiSproutResult, error) {
	opt = opt.withDefaults()
	if n < 1 {
		n = 2
	}
	mkSpec := func(name string, flows int) scenario.Spec {
		spec := opt.baseSpec()
		spec.Name = name
		spec.Scheme = "sprout"
		spec.Flows = flows
		spec.Link = trace.CanonicalNetworks()[0].Name
		return spec
	}
	results, _, err := runSpecs(opt, []scenario.Spec{mkSpec("solo", 1), mkSpec("shared", n)}, nil)
	if err != nil {
		return MultiSproutResult{}, err
	}
	solo, shared := results[0], results[1]

	res := MultiSproutResult{
		Delay95:     shared.Delay95,
		SoloKbps:    solo.Flows[0].ThroughputBps / 1000,
		SoloDelay95: solo.Delay95,
	}
	var sum, sumSq float64
	for _, f := range shared.Flows {
		kbps := f.ThroughputBps / 1000
		res.PerFlowKbps = append(res.PerFlowKbps, kbps)
		sum += kbps
		sumSq += kbps * kbps
	}
	res.AggregateKbps = sum
	if sumSq > 0 {
		res.JainIndex = sum * sum / (float64(len(res.PerFlowKbps)) * sumSq)
	}
	return res, nil
}
