package main

import (
	"fmt"
	"time"

	"sprout/internal/engine"
	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// A workload is one closed batch: every spec goes to the engine at once
// and the sweep's makespan is the wait a user sees. Why each workload
// exists, and which layer metrics it is meant to move, is in README.md.
type workload struct {
	name string
	// specs builds the workload's spec grid from the benchmark seed; the
	// program under test receives only these generated specs.
	specs func(seed int64) []scenario.Spec
	// models names the delivery models the workload's flows ride, with
	// the share of each model's rate one flow sees. The layer probes
	// train on them, so probe inputs are shaped like the workload.
	models []probeModel
	// cellFlows is the flow count one cell scheduler serves (zero for
	// dedicated links).
	cellFlows int
	// sproutOrdering enables the paper's §5 ordering check (Sprout's
	// delay95 below Cubic's on every link).
	sproutOrdering bool
}

// probeModel is one link model a workload's flows ride, at rate scale
// (zero means unscaled), divided among flows flows (1 for a dedicated
// link).
type probeModel struct {
	model string
	scale float64
	flows int
}

var workloads = []workload{
	{
		name:           "paper-matrix",
		specs:          paperMatrix,
		models:         allCanonicalModels(),
		sproutOrdering: true,
	},
	{
		name:      "cell-sprout",
		specs:     cellSprout,
		models:    []probeModel{{"Verizon-LTE-down", 0, cellSproutFlows}, {"ATT-LTE-down", 0, cellSproutFlows}},
		cellFlows: cellSproutFlows,
	},
	{
		name:      "cell-tcp",
		specs:     cellTCP,
		models:    []probeModel{{"Verizon-LTE-down", 8, 256 / 4}},
		cellFlows: 256 / 4,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func allCanonicalModels() []probeModel {
	var ms []probeModel
	for _, m := range trace.CanonicalLinks() {
		ms = append(ms, probeModel{m.Name, 0, 1})
	}
	return ms
}

func dur(d time.Duration) scenario.Duration { return scenario.Duration(d) }

// linkSeed fixes every workload's network: the spec seed that generates
// the canonical traces and the streaming processes' opportunity draws
// (and, in cells, the handover schedule). The paper, too, replays the
// same recorded traces in every experiment. Over runs this short, a new
// network per seed moved the metrics by 7-65% across seeds (README.md),
// which would swamp any regression bound; so the benchmark seed varies
// the path instead.
const linkSeed = 1

// propDelay is the one-way propagation delay a benchmark seed gives every
// path: uniform over [18 ms, 22 ms], around the paper's ≈20 ms. It
// perturbs every packet's timing, and so every flow's trajectory, while
// leaving the network and the offered load as they were.
func propDelay(seed int64) scenario.Duration {
	const span = 4 * time.Millisecond
	off := time.Duration(engine.DeriveSeed(seed, "sweepbench-prop-delay") % int64(span/time.Microsecond+1))
	return dur(18*time.Millisecond + off*time.Microsecond)
}

// paperMatrix is the paper's headline experiment at its default run
// length: one flow per job on a dedicated canonical link.
func paperMatrix(seed int64) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range scenario.NetworkNames() {
		for _, dir := range []string{"down", "up"} {
			for _, scheme := range scenario.PaperSchemes() {
				specs = append(specs, scenario.Spec{
					Scheme: scheme, Link: net, Direction: dir,
					Duration: dur(150 * time.Second), Skip: dur(30 * time.Second),
					Seed: linkSeed, PropDelay: propDelay(seed),
				})
			}
		}
	}
	return specs
}

// cellSproutFlows is the Sprout flow count of each cell-sprout cell. At 32
// flows a sweep takes about 3.5 s on a 2-vCPU VM, so a 40 s run measures
// about ten of them (64 flows gave four or five, too few for the host-time
// estimate of a noisy host; README.md).
const cellSproutFlows = 32

func cellSprout(seed int64) []scenario.Spec {
	mk := func(sched, down, up string) scenario.Spec {
		return scenario.Spec{
			Process:         &scenario.ProcessSpec{Model: down},
			FeedbackProcess: &scenario.ProcessSpec{Model: up},
			Cell: &scenario.CellSpec{
				Scheduler: sched,
				Groups:    []scenario.CellGroup{{Scheme: "sprout", Flows: cellSproutFlows}},
			},
			Duration: dur(20 * time.Second), Skip: dur(5 * time.Second),
			Seed: linkSeed, PropDelay: propDelay(seed),
		}
	}
	return []scenario.Spec{
		mk("proportional-fair", "Verizon-LTE-down", "Verizon-LTE-up"),
		mk("round-robin", "ATT-LTE-down", "ATT-LTE-up"),
	}
}

// cellTCP spreads each scheme's 128 users evenly over the 4 towers, so
// handover moves flows between loaded cells.
func cellTCP(seed int64) []scenario.Spec {
	const towers, perScheme = 4, 128
	mk := func(sched string, schemes ...string) scenario.Spec {
		var groups []scenario.CellGroup
		for _, s := range schemes {
			for c := 0; c < towers; c++ {
				groups = append(groups, scenario.CellGroup{Scheme: s, Flows: perScheme / towers, Cell: c})
			}
		}
		return scenario.Spec{
			Process:         &scenario.ProcessSpec{Model: "Verizon-LTE-down", Scale: 8},
			FeedbackProcess: &scenario.ProcessSpec{Model: "Verizon-LTE-up", Scale: 8},
			Cell: &scenario.CellSpec{
				Scheduler: sched, Cells: towers, HandoverRate: 2,
				Groups: groups,
			},
			Duration: dur(60 * time.Second), Skip: dur(15 * time.Second),
			Seed: linkSeed, PropDelay: propDelay(seed),
		}
	}
	return []scenario.Spec{
		mk("proportional-fair", "cubic", "skype"),
		mk("round-robin", "cubic-codel", "vegas"),
	}
}

// specFlows is the number of flows a spec simulates: its cell groups, or
// its flow groups on a dedicated path. Specs must be normalized.
func specFlows(s scenario.Spec) int {
	n := 0
	if s.Cell != nil {
		for _, g := range s.Cell.Groups {
			n += g.Flows
		}
		return n
	}
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// flowSeconds is the sweep's simulated work: flows x simulated duration,
// summed over specs. Specs must be normalized.
func flowSeconds(specs []scenario.Spec) float64 {
	total := 0.0
	for _, s := range specs {
		total += float64(specFlows(s)) * time.Duration(s.Duration).Seconds()
	}
	return total
}
