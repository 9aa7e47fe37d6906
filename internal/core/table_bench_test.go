package core

import "testing"

// BenchmarkBuildForecastTable is the cold cost of the flattened CDF
// table F — paid once per process per parameter set, where it used to be
// paid by every NewDeliveryForecaster.
func BenchmarkBuildForecastTable(b *testing.B) {
	p := DefaultParams()
	m := NewModel(Params{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCDFTable(m.binRate, p.Tick.Seconds(), p.ForecastTicks, p.MaxRate)
	}
}

// BenchmarkBuildForecastFold is the cold cost of folding the lookahead
// evolution into F (the G table), paid once per process per parameter set
// on top of BenchmarkBuildForecastTable.
func BenchmarkBuildForecastFold(b *testing.B) {
	p := DefaultParams()
	m := NewModel(Params{})
	t := buildCDFTable(m.binRate, p.Tick.Seconds(), p.ForecastTicks, p.MaxRate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.buildFold(m)
	}
}

// BenchmarkMixtureQuantile isolates the folded-table quantile scan that
// Forecast performs once per horizon tick.
func BenchmarkMixtureQuantile(b *testing.B) {
	f := trainedForecaster(b, 300, 12)
	m := f.model
	f.w, f.rows, f.lo, f.hi = m.probs, f.tbl.fold, m.lo, m.hi
	p := 1 - DefaultConfidence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mixtureQuantileFrom(i%DefaultForecastTicks, p, 0)
	}
}

func BenchmarkModelClone(b *testing.B) {
	m := NewModel(Params{})
	for i := 0; i < 100; i++ {
		m.Tick(6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clone()
	}
}
