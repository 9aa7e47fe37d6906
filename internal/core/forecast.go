package core

import (
	"math"
	"sync"
	"time"

	"sprout/internal/stats"
)

// forecastTable holds the precomputed tables behind the cautious forecast.
// It is immutable once built, so one table is shared by every forecaster
// (and every Clone) whose model has the same table-shaping parameters; a
// process running thousands of parallel experiments builds it exactly once
// per parameter set.
//
// flat is the Poisson CDF table F, laid out so that a mixture-CDF
// evaluation at a fixed (tick, count) reads the bin dimension
// consecutively:
//
//	flat[off[i] + k*bins + j] = P(C <= k | λ = bin j at tick i+1)
//
// Each tick has its own count bound maxK[i] ≈ MaxRate·(i+1)·τ (padded 25%
// plus a constant so quantile scans never clip): early ticks store and
// scan far fewer counts than the horizon tick needs.
//
// fold is the lookahead folded into the same layout. The observation-free
// evolution is a fixed linear operator T (the model's kernel and outage
// stickiness), so tick i's mixture CDF of an evolved posterior,
// (T^(i+1)·p)·F_i[k], equals p·G_i[k] with G_i = (T^(i+1))ᵀ·F_i:
//
//	fold[off[i] + k*bins + j] = Σ_m (T^(i+1)·e_j)[m] · F_i[k][m]
//
// A forecast therefore reads the un-evolved posterior against fold and
// evolves nothing. sigma records which kernel fold was built from.
type forecastTable struct {
	bins  int
	off   []int
	maxK  []int
	flat  []float64
	fold  []float64
	sigma float64
}

// row returns the bins-long CDF slice at (tick, count k).
func (t *forecastTable) row(tick, k int) []float64 {
	base := t.off[tick] + k*t.bins
	return t.flat[base : base+t.bins]
}

func buildCDFTable(binRate []float64, tau float64, ticks int, maxRate float64) *forecastTable {
	t := &forecastTable{
		bins: len(binRate),
		off:  make([]int, ticks),
		maxK: make([]int, ticks),
	}
	total := 0
	for i := 0; i < ticks; i++ {
		t.off[i] = total
		t.maxK[i] = int(maxRate*tau*float64(i+1)*1.25) + 10
		total += (t.maxK[i] + 1) * t.bins
	}
	t.flat = make([]float64, total)
	for i := 0; i < ticks; i++ {
		horizon := float64(i+1) * tau
		for j, r := range binRate {
			cdf := stats.PoissonCDFTable(r*horizon, t.maxK[i])
			for k, v := range cdf {
				t.flat[t.off[i]+k*t.bins+j] = v
			}
		}
	}
	return t
}

// buildFold fills t.fold for m's kernel: each unit posterior e_j is evolved
// through the horizon with the model's own evolveWindow, and after step i
// its evolved vector is dotted with every row of F_i over the vector's
// support window. Four rows share each pass over the vector.
func (t *forecastTable) buildFold(m *Model) {
	n := t.bins
	t.fold = make([]float64, len(t.flat))
	t.sigma = m.p.Sigma
	cur, next := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		clear(cur)
		cur[j] = 1
		lo, hi := j, j+1
		for i, base := range t.off {
			lo, hi = evolveWindow(next, cur, m.kernel, m.kernelPad, m.radius, m.outageStay, lo, hi)
			cur, next = next, cur
			v := cur[lo:hi]
			k := 0
			for ; k+3 <= t.maxK[i]; k += 4 {
				r1 := t.row(i, k)[lo:hi]
				r2 := t.row(i, k+1)[lo:hi]
				r3 := t.row(i, k+2)[lo:hi]
				r4 := t.row(i, k+3)[lo:hi]
				var s1, s2, s3, s4 float64
				for x, w := range v {
					s1 += w * r1[x]
					s2 += w * r2[x]
					s3 += w * r3[x]
					s4 += w * r4[x]
				}
				g := t.fold[base+k*n+j:]
				g[0], g[n], g[2*n], g[3*n] = s1, s2, s3, s4
			}
			for ; k <= t.maxK[i]; k++ {
				r := t.row(i, k)[lo:hi]
				var s float64
				for x, w := range v {
					s += w * r[x]
				}
				t.fold[base+k*n+j] = s
			}
		}
	}
}

// buildForecastTable builds F and its fold for m's parameters and kernel.
func buildForecastTable(m *Model) *forecastTable {
	t := buildCDFTable(m.binRate, m.p.Tick.Seconds(), m.p.ForecastTicks, m.p.MaxRate)
	t.buildFold(m)
	return t
}

// tableKey captures exactly the parameters the tables depend on: the bin
// grid (NumBins + MaxRate determine binRate), the tick length and the
// horizon shape F; σ and λz shape the evolution folded into G.
// Confidence shapes neither, so the §5.5 sweep shares one table across all
// its runs.
type tableKey struct {
	bins         int
	ticks        int
	maxRate      float64
	tick         time.Duration
	sigma        float64
	outageEscape float64
}

// TableCacheLimit bounds the process-wide forecast-table cache: a table at
// the default parameters holds ~500k float64s (~4 MB, F and its fold), and
// entries are never evicted, so a library consumer sweeping a
// table-shaping parameter past this many distinct values gets uncached
// (per-forecaster) tables rather than unbounded retained memory.
// TableCacheStats makes that degradation observable.
const TableCacheLimit = 16

// tableEntry is one cache slot. The first forecaster at a key builds the
// table under once; concurrent forecasters at the same key wait for that
// build instead of duplicating it.
type tableEntry struct {
	once sync.Once
	t    *forecastTable
}

var (
	tableMu       sync.Mutex
	tableCache    = map[tableKey]*tableEntry{}
	tableHits     int64
	tableMisses   int64
	tableUncached int64
)

// TableCacheStats reports the process-wide forecast-table cache counters:
// hits (a forecaster reused a cached or in-flight table), misses (a fresh
// build that was stored), and uncached builds (the cache was already at
// its size limit, so the build could not be stored and every further
// forecaster at those parameters rebuilds its own ~4 MB table). A nonzero
// uncached count means a parameter sweep has silently outgrown the cache.
func TableCacheStats() (hits, misses, uncached int64) {
	tableMu.Lock()
	defer tableMu.Unlock()
	return tableHits, tableMisses, tableUncached
}

func forecastTableFor(m *Model) *forecastTable {
	key := tableKey{
		bins:         m.NumBins(),
		ticks:        m.p.ForecastTicks,
		maxRate:      m.p.MaxRate,
		tick:         m.p.Tick,
		sigma:        m.p.Sigma,
		outageEscape: m.p.OutageEscape,
	}
	tableMu.Lock()
	e, ok := tableCache[key]
	switch {
	case ok:
		tableHits++
	case len(tableCache) < TableCacheLimit:
		e = &tableEntry{}
		tableCache[key] = e
		tableMisses++
	default:
		tableUncached++
		tableMu.Unlock()
		return buildForecastTable(m)
	}
	tableMu.Unlock()
	// Build outside the global lock, so builds for different keys proceed
	// in parallel; the entry's once makes the build single-flight per key.
	e.once.Do(func() { e.t = buildForecastTable(m) })
	return e.t
}

// DeliveryForecaster produces Sprout's cautious packet-delivery forecast
// (§3.3): for each of the next HorizonTicks ticks, a lower bound Q_i such
// that the cumulative number of packets delivered by tick i meets or
// exceeds Q_i with probability at least Confidence.
//
// As in the paper, nearly everything is precomputed: the Poisson CDF table
// indexed by (tick, count, rate bin), with the observation-free lookahead
// evolution folded into it, is built once per parameter set and shared
// process-wide, so a runtime forecast is only weighted sums of the current
// posterior over its live bins.
//
// The cumulative count by future tick i, conditioned on the rate path, is a
// Poisson with mean ∫λ dt. Following the paper's "sum over each λ" step we
// approximate the path integral by λ_i · i·τ where λ_i is the rate at tick
// i drawn from the evolved (observation-free) posterior; the Brownian
// evolution itself carries the uncertainty between ticks.
//
// A forecaster whose model's σ has moved off the one the table was folded
// from (AdaptiveForecaster after SetSigma) evolves a copy of the posterior
// tick by tick and mixes it against F instead — the same forecast, by the
// unfolded route.
//
// A DeliveryForecaster is not safe for concurrent use, but Clone returns
// an independent copy (sharing only the immutable table) so each worker in
// a parallel experiment owns its own filter state.
type DeliveryForecaster struct {
	model *Model
	tbl   *forecastTable

	// The operands of the mixture sums: weights w with nonzero support
	// [lo, hi), read against table rows (tbl.fold or tbl.flat).
	w, rows []float64
	lo, hi  int

	// Lookahead scratch of the unfolded path, allocated on first use.
	cur, next []float64

	// Sweep scratch for ForecastAll: the requested confidences as
	// p-values sorted ascending, each remembering its caller slot, plus
	// each confidence's previous-tick quantile (its warm start and
	// monotonic clamp). Retained so repeated sweeps allocate nothing.
	sweepP    []float64
	sweepIdx  []int
	sweepPrev []int
	one       [1]float64 // ForecastAt's single-confidence view
}

// NewDeliveryForecaster builds the forecaster for the model, reusing the
// process-wide table when one with matching parameters exists.
func NewDeliveryForecaster(m *Model) *DeliveryForecaster {
	return &DeliveryForecaster{model: m, tbl: forecastTableFor(m)}
}

// Clone returns an independent forecaster whose model and scratch state
// are deep-copied while the immutable table is shared. The clone may be
// Ticked concurrently with the original.
func (f *DeliveryForecaster) Clone() *DeliveryForecaster {
	return &DeliveryForecaster{model: f.model.Clone(), tbl: f.tbl}
}

// Model returns the underlying Bayesian filter.
func (f *DeliveryForecaster) Model() *Model { return f.model }

// Reset implements Forecaster: the model returns to its uniform prior; the
// shared table and the scratch buffers (overwritten by every Forecast) are
// retained, so reuse allocates nothing.
func (f *DeliveryForecaster) Reset() { f.model.Reset() }

// Tick implements Forecaster: evolve one tick, then apply the observation
// in the requested mode.
func (f *DeliveryForecaster) Tick(observed float64, mode Observation) {
	f.model.Evolve()
	switch mode {
	case ObsExact:
		f.model.Observe(observed)
	case ObsAtLeast:
		f.model.ObserveAtLeast(observed)
	case ObsSkip:
		// evolution only
	}
}

// HorizonTicks implements Forecaster.
func (f *DeliveryForecaster) HorizonTicks() int { return f.model.p.ForecastTicks }

// TickDuration implements Forecaster.
func (f *DeliveryForecaster) TickDuration() time.Duration { return f.model.p.Tick }

// Forecast implements Forecaster: at each tick of the horizon it returns
// the (1−Confidence) quantile of the cumulative-delivery mixture under the
// observation-free evolved posterior. The result is nondecreasing across
// ticks.
func (f *DeliveryForecaster) Forecast(dst []float64) []float64 {
	return f.ForecastAt(dst, f.model.p.Confidence)
}

// ForecastAt is Forecast with an explicit confidence: a one-confidence
// ForecastAll.
func (f *DeliveryForecaster) ForecastAt(dst []float64, confidence float64) []float64 {
	f.one[0] = confidence
	return f.ForecastAll(dst, f.one[:])
}

// clampP converts a confidence into the quantile probability the searches
// compare against, clamped inside (0, 1).
func clampP(confidence float64) float64 {
	p := 1 - confidence
	if p <= 0 {
		p = 1e-9
	}
	if p >= 1 {
		p = 1 - 1e-9
	}
	return p
}

// ForecastAll appends the cautious forecast at every requested confidence
// to dst: confidences[0]'s HorizonTicks values first, then
// confidences[1]'s, and so on — each block exactly what ForecastAt at
// that confidence appends (bit-identical, any order, duplicates allowed).
//
// This is the §5.5 sweep entry point. Every confidence reads the same
// mixture, so within a tick the quantile searches share one monotone walk
// up the count axis: the p-values are visited in ascending order and each
// search warm-starts at the previous answer (provably its lower bound), so
// later confidences usually cost a handful of extra CDF probes. A
// k-confidence sweep is therefore close to the price of one.
func (f *DeliveryForecaster) ForecastAll(dst []float64, confidences []float64) []float64 {
	return f.forecastAll(dst, confidences, f.model.p.Sigma == f.tbl.sigma)
}

// forecastAll is ForecastAll by the folded route (the posterior read
// against G at every tick) or the unfolded one (a scratch copy evolved
// tick by tick and read against F). The two agree whenever folded is
// legal, which is what lets the tests use the unfolded route as the
// folded one's oracle.
func (f *DeliveryForecaster) forecastAll(dst []float64, confidences []float64, folded bool) []float64 {
	nc := len(confidences)
	if nc == 0 {
		return dst
	}
	ticks := f.model.p.ForecastTicks
	base := len(dst)
	dst = extendFloats(dst, nc*ticks)

	// Order the p-values ascending (insertion sort into retained
	// scratch; sweeps are tiny), remembering each one's caller slot.
	f.sweepP, f.sweepIdx, f.sweepPrev = f.sweepP[:0], f.sweepIdx[:0], f.sweepPrev[:0]
	for ci, conf := range confidences {
		p := clampP(conf)
		at := ci
		f.sweepP = append(f.sweepP, 0)
		f.sweepIdx = append(f.sweepIdx, 0)
		for ; at > 0 && f.sweepP[at-1] > p; at-- {
			f.sweepP[at] = f.sweepP[at-1]
			f.sweepIdx[at] = f.sweepIdx[at-1]
		}
		f.sweepP[at], f.sweepIdx[at] = p, ci
		f.sweepPrev = append(f.sweepPrev, 0)
	}

	m := f.model
	if folded {
		f.w, f.rows, f.lo, f.hi = m.probs, f.tbl.fold, m.lo, m.hi
	} else {
		if f.cur == nil {
			f.cur, f.next = make([]float64, len(m.probs)), make([]float64, len(m.probs))
		}
		copy(f.cur, m.probs)
		f.rows, f.lo, f.hi = f.tbl.flat, m.lo, m.hi
	}
	for i := 0; i < ticks; i++ {
		if !folded {
			f.lo, f.hi = evolveWindow(f.next, f.cur, m.kernel, m.kernelPad, m.radius, m.outageStay, f.lo, f.hi)
			f.cur, f.next = f.next, f.cur
			f.w = f.cur
		}
		// One monotone walk answers every confidence: ascending p means
		// ascending quantile, so each search starts at the larger of its
		// own previous-tick bound and the preceding confidence's answer
		// this tick. Both are exact lower bounds of its result, so the
		// answer — and the appended forecast — is bit-identical to an
		// independent per-confidence search.
		walk := 0
		for s := 0; s < nc; s++ {
			ci := f.sweepIdx[s]
			from := f.sweepPrev[ci]
			if walk > from {
				from = walk
			}
			q := f.mixtureQuantileFrom(i, f.sweepP[s], from)
			f.sweepPrev[ci] = q
			walk = q
			dst[base+ci*ticks+i] = float64(q)
		}
	}
	return dst
}

// ForecastBatch appends, for each forecaster in fs, its cautious forecast
// at its own configured confidence — fs[0]'s HorizonTicks values, then
// fs[1]'s, and so on — exactly what each one's Forecast appends. The
// forecasters may differ in parameters, including horizon. This is the
// inference API a shared-cell scheduler calls for all its flows at one
// instant; with the lookahead folded into the table there is nothing left
// to share across flows, so it is a plain loop.
func ForecastBatch(dst []float64, fs []*DeliveryForecaster) []float64 {
	for _, f := range fs {
		dst = f.Forecast(dst)
	}
	return dst
}

// extendFloats grows dst by n slots (contents unspecified — the callers
// overwrite every new slot), reusing capacity when available so the
// steady-state path allocates nothing.
func extendFloats(dst []float64, n int) []float64 {
	if cap(dst)-len(dst) < n {
		g := make([]float64, len(dst), len(dst)+n)
		copy(g, dst)
		dst = g
	}
	return dst[:len(dst)+n]
}

// mixtureQuantileFrom returns max(lo0, q) where q is the smallest count
// whose mixture CDF exceeds p — the cautious bound at the given tick,
// already clamped to the nondecreasing cumulative forecast. The search
// warm-starts at lo0 and is capped by the precomputed per-tick count
// bound.
//
// Search strategy cannot change the result: F is a pure nondecreasing
// function of k (every evaluation an independent windowed dot product of
// non-negative weights with rows that are elementwise nondecreasing in k),
// so any probe order finds the same first count with F(k) > p. The shape
// below exists purely for speed. Each CDF evaluation is a latency-bound
// chain of dependent adds, so every pass probes four counts at once
// (mixtureCDF4's independent accumulators) for about the price of one.
// The bound usually advances a few counts per tick, so the passes gallop
// up from lo0 with doubling strides until they bracket the answer, then
// split the bracket five ways until at most four candidates remain.
func (f *DeliveryForecaster) mixtureQuantileFrom(tick int, p float64, lo0 int) int {
	// Invariant: F(k) <= p for every k in [lo0, lo), and the answer is at
	// most hi (F(hi) > p, or hi is the count bound).
	lo, hi := lo0, f.tbl.maxK[tick]
	if lo >= hi {
		return lo
	}
	step, bracketed := 1, false
	for hi-lo > 4 {
		var q [5]int // q[0] = lo-1 is already known to be <= p
		q[0] = lo - 1
		if n := hi - lo; bracketed || 4*step >= n {
			for m := 1; m < 5; m++ {
				q[m] = lo - 1 + m*n/5
			}
		} else {
			for m := 1; m < 5; m++ {
				q[m] = lo - 1 + m*step
			}
			step *= 2
		}
		f1, f2, f3, f4 := f.mixtureCDF4(tick, q[1], q[2], q[3], q[4])
		m := 5
		switch {
		case f1 > p:
			m = 1
		case f2 > p:
			m = 2
		case f3 > p:
			m = 3
		case f4 > p:
			m = 4
		}
		if m == 5 {
			lo = q[4] + 1
			continue
		}
		lo, hi, bracketed = q[m-1]+1, q[m], true
	}
	// At most four candidates left: lo .. hi-1, padded with repeats.
	if lo == hi {
		return hi
	}
	k1, k2, k3, k4 := lo, min(lo+1, hi-1), min(lo+2, hi-1), min(lo+3, hi-1)
	f1, f2, f3, f4 := f.mixtureCDF4(tick, k1, k2, k3, k4)
	switch {
	case f1 > p:
		return k1
	case f2 > p:
		return k2
	case f3 > p:
		return k3
	case f4 > p:
		return k4
	}
	return hi
}

// rowAt returns row (tick, k) of the current mixture table, sliced to the
// weights' support window.
func (f *DeliveryForecaster) rowAt(tick, k int) []float64 {
	base := f.tbl.off[tick] + k*f.tbl.bins
	return f.rows[base+f.lo : base+f.hi]
}

// mixtureCDF4 evaluates the mixture CDF F(k) = Σ_j w_j · row[k][j] at
// four counts in one pass over the weights' support window (bins outside
// it are exactly zero). The four dot products share the weight loads and
// accumulate independently, so the pass costs roughly one latency-bound
// add chain instead of four; each sum is exactly what a separate
// evaluation in the same bin order would produce.
func (f *DeliveryForecaster) mixtureCDF4(tick, k1, k2, k3, k4 int) (float64, float64, float64, float64) {
	r1 := f.rowAt(tick, k1)
	r2 := f.rowAt(tick, k2)
	r3 := f.rowAt(tick, k3)
	r4 := f.rowAt(tick, k4)
	w := f.w[f.lo:f.hi]
	var s1, s2, s3, s4 float64
	for j, wj := range w {
		s1 += wj * r1[j]
		s2 += wj * r2[j]
		s3 += wj * r3[j]
		s4 += wj * r4[j]
	}
	return s1, s2, s3, s4
}

// EWMAForecaster is the Sprout-EWMA variant (§5.3): it tracks the observed
// per-tick delivery rate with an exponentially weighted moving average and
// simply predicts that the link will continue at that speed for the whole
// horizon, with no caution.
type EWMAForecaster struct {
	tick    time.Duration
	horizon int
	gain    float64
	rate    float64 // packets per tick
	primed  bool
}

// DefaultEWMAGain is the per-tick EWMA gain. One eighth per 20 ms tick
// tracks rate increases within ~150 ms while still smoothing Poisson noise.
const DefaultEWMAGain = 0.125

// NewEWMAForecaster returns the Sprout-EWMA rate tracker. Zero gain,
// tick or horizon select the defaults (DefaultEWMAGain, 20 ms, 8).
func NewEWMAForecaster(gain float64, tick time.Duration, horizon int) *EWMAForecaster {
	if gain == 0 {
		gain = DefaultEWMAGain
	}
	if tick == 0 {
		tick = DefaultTick
	}
	if horizon == 0 {
		horizon = DefaultForecastTicks
	}
	return &EWMAForecaster{tick: tick, horizon: horizon, gain: gain}
}

// Tick implements Forecaster. Exact observations fold into the moving
// average; censored (at-least) observations can only raise the estimate,
// since the true deliverable count was at least what arrived; skipped
// ticks leave the estimate untouched.
func (e *EWMAForecaster) Tick(observed float64, mode Observation) {
	switch mode {
	case ObsSkip:
		return
	case ObsAtLeast:
		if observed > e.rate {
			e.rate = observed
			e.primed = true
		}
		return
	}
	if !e.primed {
		e.rate = observed
		e.primed = true
		return
	}
	e.rate += e.gain * (observed - e.rate)
}

// Rate returns the current smoothed rate estimate in packets per tick.
func (e *EWMAForecaster) Rate() float64 { return e.rate }

// Reset implements Forecaster: back to the unprimed zero-rate state.
func (e *EWMAForecaster) Reset() { e.rate, e.primed = 0, false }

// HorizonTicks implements Forecaster.
func (e *EWMAForecaster) HorizonTicks() int { return e.horizon }

// TickDuration implements Forecaster.
func (e *EWMAForecaster) TickDuration() time.Duration { return e.tick }

// Forecast implements Forecaster: a straight line at the current rate.
func (e *EWMAForecaster) Forecast(dst []float64) []float64 {
	for i := 1; i <= e.horizon; i++ {
		dst = append(dst, math.Max(0, e.rate*float64(i)))
	}
	return dst
}
