package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"sprout/internal/link"
	"sprout/internal/stats"
	"sprout/internal/trace"
)

// sliceOmniscientSegments is the test oracle for the omniscient bound: the
// post-hoc recurrence over a materialized opportunity slice that
// experiments used before every run fed its opportunities online. It
// builds the omniscient protocol's d(t) segments over [from, to).
func sliceOmniscientSegments(tr *trace.Trace, prop, from, to time.Duration) []stats.Segment {
	ops := tr.Opportunities
	lo := sort.Search(len(ops), func(i int) bool { return ops[i] >= from })
	cursor := from
	haveBase := lo > 0 // an opportunity before the window anchors d(from)
	base := time.Duration(0)
	if haveBase {
		base = ops[lo-1]
	}
	var segs []stats.Segment
	for i := lo; i < len(ops) && ops[i] < to; i++ {
		if ops[i] > cursor && haveBase {
			segs = append(segs, stats.Segment{
				Start: (cursor - base + prop).Seconds(),
				Width: (ops[i] - cursor).Seconds(),
			})
		}
		base = ops[i]
		cursor = ops[i]
		haveBase = true
	}
	if haveBase && to > cursor {
		segs = append(segs, stats.Segment{
			Start: (cursor - base + prop).Seconds(),
			Width: (to - cursor).Seconds(),
		})
	}
	return segs
}

// sliceEvaluate is the whole-result oracle: the retained-log primitives
// for the delivery side, sliceOmniscientSegments and CapacityBits for the
// trace side, combined with the Result arithmetic.
func sliceEvaluate(log []link.Delivery, tr *trace.Trace, prop, from, to time.Duration) Result {
	r := Result{
		ThroughputBps: Throughput(log, from, to),
		Delay95:       EndToEndDelay(log, from, to, 0.95),
		Omniscient95:  prop,
		MeanDelay:     MeanDelay(log, from, to),
	}
	if segs := sliceOmniscientSegments(tr, prop, from, to); len(segs) > 0 {
		r.Omniscient95 = secondsToDuration(stats.SegmentPercentile(segs, 0.95))
	}
	r.SelfInflicted95 = max(r.Delay95-r.Omniscient95, 0)
	if capBits := tr.CapacityBits(from, to); capBits > 0 {
		r.Utilization = r.ThroughputBps * (to - from).Seconds() / float64(capBits)
	}
	for _, d := range log {
		if d.DeliveredAt >= from && d.DeliveredAt < to {
			r.DeliveredBytes += int64(d.Size)
		}
	}
	return r
}

// randomLog builds a random delivery log in DeliveredAt order, with
// interleaved flows and deliveries straddling the metric window.
func randomLog(rng *rand.Rand, n int, flows []uint32) []link.Delivery {
	log := make([]link.Delivery, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.Intn(40)) * time.Millisecond
		sent := at - time.Duration(20+rng.Intn(500))*time.Millisecond
		if sent < 0 {
			sent = 0
		}
		log = append(log, link.Delivery{
			SentAt:      sent,
			DeliveredAt: at,
			Size:        100 + rng.Intn(1400),
			Flow:        flows[rng.Intn(len(flows))],
		})
	}
	return log
}

func testTrace() *trace.Trace {
	tr := &trace.Trace{Name: "acc-test"}
	for at := time.Duration(0); at < 10*time.Second; at += 7 * time.Millisecond {
		tr.Opportunities = append(tr.Opportunities, at)
	}
	return tr
}

// TestAccumulatorMatchesSlicePath asserts the streaming accumulator is
// bit-identical to the retained-log primitives, per flow and in aggregate,
// across random logs and windows.
func TestAccumulatorMatchesSlicePath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testTrace()
	flows := []uint32{1, 2, 7}
	var a Accumulator
	for trial := 0; trial < 50; trial++ {
		log := randomLog(rng, 30+rng.Intn(400), flows)
		from := time.Duration(rng.Intn(2000)) * time.Millisecond
		to := from + time.Duration(1+rng.Intn(8000))*time.Millisecond
		prop := 20 * time.Millisecond

		a.Start(from, to, flows)
		a.TrackOpportunities(prop)
		for _, d := range log {
			a.Observe(d)
		}
		a.observeTrace(tr)
		got := a.EvaluateStreaming()
		if want := Evaluate(log, tr, prop, from, to); got != want {
			t.Fatalf("trial %d: per-flow accumulator aggregate %+v != plain %+v", trial, got, want)
		}
		if want := sliceEvaluate(log, tr, prop, from, to); got != want {
			t.Fatalf("trial %d: accumulator %+v != slice oracle %+v", trial, got, want)
		}
		if om := OmniscientDelay(tr, prop, from, to, 0.95); got.Omniscient95 != om {
			t.Fatalf("trial %d: omniscient %v != OmniscientDelay %v", trial, got.Omniscient95, om)
		}
		if agg := a.Delay95(); agg != got.Delay95 {
			t.Fatalf("trial %d: Delay95 accessor %v != %v", trial, agg, got.Delay95)
		}
		for i := range flows {
			flow, tput, d95 := a.Flow(i)
			sub := FilterFlow(log, flow)
			if wt := Throughput(sub, from, to); tput != wt {
				t.Fatalf("trial %d flow %d: throughput %v != filtered %v", trial, flow, tput, wt)
			}
			if wd := EndToEndDelay(sub, from, to, 0.95); d95 != wd {
				t.Fatalf("trial %d flow %d: delay95 %v != filtered %v", trial, flow, d95, wd)
			}
		}
	}
}

// randomTrace builds a random opportunity schedule with bursts, gaps and
// duplicate instants, long enough to straddle any test window.
func randomTrace(rng *rand.Rand, name string) *trace.Trace {
	tr := &trace.Trace{Name: name}
	at := time.Duration(0)
	for at < 12*time.Second {
		at += time.Duration(rng.Intn(60)) * time.Millisecond // 0 = duplicate instant
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			tr.Opportunities = append(tr.Opportunities, at)
		}
	}
	return tr
}

// TestStreamingOpportunitiesMatchSlicePath asserts the online
// omniscient/capacity stream is bit-identical to the slice oracle:
// feeding the trace's opportunity instants one at a time through
// ObserveOpportunity, interleaved with the deliveries the way a live run
// produces them, and finishing with EvaluateStreaming equals the post-hoc
// slice recurrence on every field, across random traces, logs and windows.
func TestStreamingOpportunitiesMatchSlicePath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	flows := []uint32{1, 2, 7}
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(rng, "streamed")
		log := randomLog(rng, 30+rng.Intn(400), flows)
		from := time.Duration(rng.Intn(2000)) * time.Millisecond
		to := from + time.Duration(1+rng.Intn(8000))*time.Millisecond
		prop := time.Duration(rng.Intn(40)) * time.Millisecond

		var a Accumulator
		a.Start(from, to, flows)
		a.TrackOpportunities(prop)
		li, oi := 0, 0
		// Relative order of same-instant events must not matter.
		for li < len(log) || oi < tr.Count() {
			if oi >= tr.Count() || (li < len(log) && log[li].DeliveredAt <= tr.Opportunities[oi]) {
				a.Observe(log[li])
				li++
			} else {
				a.ObserveOpportunity(tr.Opportunities[oi])
				oi++
			}
		}
		got := a.EvaluateStreaming()
		if want := sliceEvaluate(log, tr, prop, from, to); got != want {
			t.Fatalf("trial %d: streaming %+v != slice oracle %+v", trial, got, want)
		}
		segs := sliceOmniscientSegments(tr, prop, from, to)
		for _, p := range []float64{0.5, 0.99} {
			want := prop
			if len(segs) > 0 {
				want = secondsToDuration(stats.SegmentPercentile(segs, p))
			}
			if om := OmniscientDelay(tr, prop, from, to, p); om != want {
				t.Fatalf("trial %d: OmniscientDelay(p=%v) %v != slice oracle %v", trial, p, om, want)
			}
		}
	}
}

// TestAccumulatorSingleFlowUsesAggregate pins the historical single-flow
// fast path: with one tracked flow, the flow's metrics are the aggregate
// stream's (the whole log is that flow's log).
func TestAccumulatorSingleFlowUsesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	log := randomLog(rng, 200, []uint32{3})
	var a Accumulator
	a.Start(time.Second, 5*time.Second, []uint32{3})
	for _, d := range log {
		a.Observe(d)
	}
	flow, tput, d95 := a.Flow(0)
	if flow != 3 {
		t.Fatalf("flow id = %d", flow)
	}
	if want := Throughput(log, time.Second, 5*time.Second); tput != want {
		t.Errorf("throughput %v != %v", tput, want)
	}
	if want := EndToEndDelay(log, time.Second, 5*time.Second, 0.95); d95 != want {
		t.Errorf("delay95 %v != %v", d95, want)
	}
}

// TestAccumulatorObserveAllocs asserts steady-state Observe is
// allocation-free once the accumulator's buffers have warmed up (the
// world-reuse contract: a reused accumulator adds nothing to the per-packet
// cost).
func TestAccumulatorObserveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flows := []uint32{1, 2}
	log := randomLog(rng, 2000, flows)
	var a Accumulator
	warm := func() {
		a.Start(0, 10*time.Second, flows)
		for _, d := range log {
			a.Observe(d)
		}
		a.Delay95()
	}
	warm() // grow segment buffers once
	if avg := testing.AllocsPerRun(20, warm); avg > 0 {
		t.Errorf("warmed accumulator run allocates %.1f times, want 0", avg)
	}
}
