package main

import (
	"fmt"
	"time"

	"sprout/internal/cell"
	"sprout/internal/core"
	"sprout/internal/engine"
	"sprout/internal/link"
	"sprout/internal/metrics"
	"sprout/internal/network"
	"sprout/internal/scenario"
	"sprout/internal/sim"
	"sprout/internal/trace"
)

// Layer probes time each layer's public functions on inputs shaped like
// the workload: its link models, its per-flow rates, its flow counts and
// its own results. They follow one harness pattern: warm-up samples are
// discarded, then each measured sample is timed on its own and the
// probe reports the p50 and p99 per operation with the sample count.
// Operations far shorter than the clock's resolution are timed in
// batches, one sample per batch, divided by the operations it held.

const (
	warmupSamples   = 20
	measuredSamples = 200
	opsPerBatch     = 1024
)

// probeResult is one probe's warm-up-excluded per-operation summary.
type probeResult struct {
	p50, p99 float64
	n        int
}

func summarize(perOp []float64) probeResult {
	return probeResult{p50: quantile(perOp, 0.5), p99: quantile(perOp, 0.99), n: len(perOp)}
}

// record stores a probe as <layer>.<op>_<unit> (p50),
// <layer>.<op>_p99_<unit> and <layer>.<op>_samples.
func record(m map[string]float64, layer, op, unit string, r probeResult) {
	m[fmt.Sprintf("%s.%s_%s", layer, op, unit)] = r.p50
	m[fmt.Sprintf("%s.%s_p99_%s", layer, op, unit)] = r.p99
	m[fmt.Sprintf("%s.%s_samples", layer, op)] = float64(r.n)
}

// batched runs batch warmupSamples+measuredSamples times; batch returns
// how many operations it performed. Each measured batch yields one
// per-operation sample in nanoseconds.
func batched(batch func() int) []float64 {
	var perOp []float64
	for i := 0; i < warmupSamples+measuredSamples; i++ {
		t0 := time.Now()
		ops := batch()
		el := time.Since(t0)
		if i >= warmupSamples && ops > 0 {
			perOp = append(perOp, float64(el.Nanoseconds())/float64(ops))
		}
	}
	return perOp
}

// probeSeed fixes the probes' random inputs: they characterize a layer's
// cost on the workload's shape, not any one run's draws.
const probeSeed = 1

// runProbes runs every layer probe. raw is the spec grid as loaded (the
// codec decodes against it), norm the same grid normalized.
func runProbes(w workload, raw, norm []scenario.Spec, results []scenario.Result, t *tracer, m map[string]float64) error {
	flows := 1
	for _, s := range norm {
		if n := specFlows(s); n > flows {
			flows = n
		}
	}
	probeCore(w, m)
	record(m, "sim", "event", "ns", probeSim(4*flows))
	record(m, "link", "opportunity", "ns", probeLink(w.models))
	record(m, "cell", "grant", "ns", probeGrant(max(w.cellFlows, 1)))
	record(m, "trace", "next", "ns", probeNext(w.models))
	record(m, "metrics", "observe", "ns", probeObserve(flows))
	return probeCodec(raw, results, t, m)
}

// process builds a model's delivery process at its workload scale.
func (pm probeModel) process() trace.DeliveryProcess {
	lm, ok := trace.CanonicalLink(pm.model)
	if !ok {
		panic("unknown probe model " + pm.model)
	}
	var p trace.DeliveryProcess = lm.Process()
	if pm.scale != 0 {
		s, err := trace.NewScale(p, pm.scale)
		if err != nil {
			panic(err)
		}
		p = s
	}
	return p
}

// tickCounts replays a model's opportunities into per-tick observations
// for one of pm.flows flows sharing the link: MTU packets per tick.
func tickCounts(pm probeModel, seed int64, ticks int) []float64 {
	p := pm.process()
	p.Reset(seed)
	out := make([]float64, ticks)
	share := 1 / float64(pm.flows)
	for {
		at, ok := p.Next()
		if !ok {
			break
		}
		i := int(at / core.DefaultTick)
		if i >= ticks {
			break
		}
		out[i] += share
	}
	return out
}

// probeCore trains forecasters on the workload's own link models and
// per-flow rates, then times Tick, Forecast and ForecastBatch, and the
// cold build of a forecast table.
func probeCore(w workload, m map[string]float64) {
	const warm, measured = 250, 500
	var tick, forecast []float64
	var dst []float64
	for _, pm := range w.models {
		obs := tickCounts(pm, probeSeed, warm+measured)
		f := core.NewDeliveryForecaster(core.NewModel(core.Params{}))
		for i, o := range obs {
			t0 := time.Now()
			f.Tick(o, core.ObsExact)
			t1 := time.Now()
			dst = f.Forecast(dst[:0])
			t2 := time.Now()
			if i >= warm {
				tick = append(tick, float64(t1.Sub(t0).Nanoseconds()))
				forecast = append(forecast, float64(t2.Sub(t1).Nanoseconds()))
			}
		}
	}
	record(m, "core", "tick", "ns", summarize(tick))
	record(m, "core", "forecast", "ns", summarize(forecast))

	// ForecastBatch over one cell's flows, as cell.Hub calls it.
	const batchWarm, batchMeasured = 100, 100
	n := max(w.cellFlows, 1)
	var perFlow []float64
	for _, pm := range w.models {
		fs := make([]*core.DeliveryForecaster, n)
		obs := make([][]float64, n)
		for k := range fs {
			fs[k] = core.NewDeliveryForecaster(core.NewModel(core.Params{}))
			obs[k] = tickCounts(pm, probeSeed+int64(k), batchWarm+batchMeasured)
		}
		for i := 0; i < batchWarm+batchMeasured; i++ {
			for k, f := range fs {
				f.Tick(obs[k][i], core.ObsExact)
			}
			t0 := time.Now()
			dst = core.ForecastBatch(dst[:0], fs)
			el := time.Since(t0)
			if i >= batchWarm {
				perFlow = append(perFlow, float64(el.Nanoseconds())/float64(n))
			}
		}
	}
	record(m, "core", "batch", "ns_per_flow", summarize(perFlow))

	// Cold table builds: each perturbs MaxRate by a negligible amount, so
	// the process-wide table cache misses and builds a table of the
	// default shape.
	var build []float64
	for k := 1; k <= 3; k++ {
		p := core.Params{MaxRate: core.DefaultMaxRate * (1 + float64(k)*1e-9)}
		t0 := time.Now()
		core.NewDeliveryForecaster(core.NewModel(p))
		build = append(build, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	record(m, "core", "table_build", "ms", summarize(build))
}

// probeSim times the event loop with pending timers outstanding, each
// rescheduling itself a pseudo-random delay ahead.
func probeSim(pending int) probeResult {
	loop := sim.New()
	state := uint64(probeSeed)
	delay := func() time.Duration {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return time.Duration(state%20000) * time.Microsecond
	}
	fns := make([]func(), pending)
	for k := range fns {
		fns[k] = func() { loop.After(delay(), fns[k]) }
		loop.After(delay(), fns[k])
	}
	return summarize(batched(func() int {
		for i := 0; i < opsPerBatch; i++ {
			loop.Step()
		}
		return opsPerBatch
	}))
}

// probeLink times a backlogged link per delivery opportunity: every
// delivered packet is sent again, so the queue never drains. The cost
// includes the event-loop work each opportunity schedules.
func probeLink(models []probeModel) probeResult {
	var all []float64
	for _, pm := range models {
		loop := sim.New()
		var l *link.Link
		l = link.New(loop, link.Config{
			Process: pm.process(), ProcessSeed: probeSeed,
			PropagationDelay: 20 * time.Millisecond,
		}, func(p *network.Packet) { l.Send(p) })
		ops := 0
		l.OnOpportunity(func(time.Duration) { ops++ })
		for i := 0; i < 64; i++ {
			l.Send(&network.Packet{Flow: 1, Seq: int64(i), Size: network.MTU})
		}
		all = append(all, batched(func() int {
			before := ops
			for i := 0; i < opsPerBatch; i++ {
				loop.Step()
			}
			return ops - before
		})...)
	}
	return summarize(all)
}

// probeGrant times one proportional-fair grant (decay, pick, grant) with
// flows backlogged users attached.
func probeGrant(flows int) probeResult {
	s := cell.NewPropFair(0)
	for i := 0; i < flows; i++ {
		s.Attach(i)
		s.Backlog(i, true)
	}
	return summarize(batched(func() int {
		for i := 0; i < opsPerBatch; i++ {
			s.Opportunity()
			s.Grant(s.Pick(), network.MTU)
		}
		return opsPerBatch
	}))
}

// probeNext times pulling one opportunity from each workload model's
// streaming process.
func probeNext(models []probeModel) probeResult {
	var all []float64
	for _, pm := range models {
		p := pm.process()
		p.Reset(probeSeed)
		all = append(all, batched(func() int {
			for i := 0; i < opsPerBatch; i++ {
				p.Next()
			}
			return opsPerBatch
		})...)
	}
	return summarize(all)
}

// probeObserve times folding one delivery into the metrics accumulator
// with the workload's per-run flow count tracked.
func probeObserve(flows int) probeResult {
	var acc metrics.Accumulator
	ids := make([]uint32, flows)
	for i := range ids {
		ids[i] = uint32(10 + i)
	}
	acc.Start(0, 365*24*time.Hour, ids)
	var now time.Duration
	var seq int64
	return summarize(batched(func() int {
		for i := 0; i < opsPerBatch; i++ {
			now += time.Millisecond
			seq++
			acc.Observe(link.Delivery{
				SentAt: now - 50*time.Millisecond, DeliveredAt: now,
				Size: network.MTU, Seq: seq, Flow: ids[int(seq)%flows],
			})
		}
		return opsPerBatch
	}))
}

// probeCodec times the shard-stream codec over the workload's own
// results: encode and decode per record, and the merge of two shard
// streams per record. Each timed batch is also recorded as a span.
func probeCodec(specs []scenario.Spec, results []scenario.Result, t *tracer, m map[string]float64) error {
	// One checked pass first. The codec is deterministic, so the timed
	// repetitions below cannot fail where this pass succeeded.
	n := len(results)
	recs := make([]engine.Record, n)
	streams := make([][]engine.Record, 2)
	for i, r := range results {
		rec, err := scenario.EncodeResult(i, r)
		if err != nil {
			return err
		}
		if _, err := scenario.DecodeResult(rec, specs); err != nil {
			return err
		}
		recs[i] = rec
		streams[i%2] = append(streams[i%2], rec)
	}
	if _, err := engine.MergeRecords(streams, n); err != nil {
		return err
	}

	enc := summarize(batched(func() int {
		defer t.span("engine.encode", "")()
		for i, r := range results {
			recs[i], _ = scenario.EncodeResult(i, r)
		}
		return n
	}))
	dec := summarize(batched(func() int {
		defer t.span("engine.decode", "")()
		for _, rec := range recs {
			_, _ = scenario.DecodeResult(rec, specs)
		}
		return n
	}))
	merge := summarize(batched(func() int {
		defer t.span("engine.merge", "")()
		_, _ = engine.MergeRecords(streams, n)
		return n
	}))
	record(m, "engine", "encode", "ns_per_record", enc)
	record(m, "engine", "decode", "ns_per_record", dec)
	record(m, "engine", "merge", "ns_per_record", merge)
	return nil
}
