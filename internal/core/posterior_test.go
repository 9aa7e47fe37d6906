package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/trace"
)

// goldenPosteriorHashes pins the filter's own bits: the SHA-256 of every
// posterior bin's float64 bits and every forecast value, tick by tick,
// over a fixed canonical-link opportunity stream. The experiment-level
// golden hashes see the posterior only through integer packet decisions,
// so a kernel that moved a bin by one ulp could pass them; this cannot.
// The hash must hold under every interior kernel (the Go gather and the
// AVX2 assembly) and on GOARCH=386, which runs the Go gather natively.
//
// The filter calls math.Exp and math.Log, which Go implements in
// assembly on amd64 (with FMA where the CPU has it) and in Go on 386, and
// the two differ in the last bit on some inputs. So the pin is keyed by a
// fingerprint of this platform's math library; a platform whose
// fingerprint is not listed checks only that every kernel agrees.
var goldenPosteriorHashes = map[string]string{
	"24698a2d506b9061": "2fed78626e1015e2f16aede69d36fee66f02187df01920bbf2a9784131d02c24", // amd64 (assembly Exp/Log, FMA)
	"15a0e3b123363a0a": "e812b2daa0afa01a420df377378f0abab8be6f1a8d48c8d78f1596c75e974c3b", // 386 (Go Exp/Log)
}

// mathFingerprint hashes math.Exp and math.Log over the ranges the filter
// feeds them (log-likelihood differences, per-tick rates, Gaussian
// kernel exponents).
func mathFingerprint() string {
	h := sha256.New()
	var word [8]byte
	for i := 1; i <= 20000; i++ {
		x := float64(i) * 0.00731
		for _, v := range []float64{math.Exp(-x), math.Exp(-x * x / 2), math.Log(x), math.Log(x * 1e-3)} {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPosteriorGoldenHash ticks a DeliveryForecaster over 20 s of the
// Verizon LTE downlink — exact, censored (ObsAtLeast) and skipped ticks
// interleaved by oracleMode — and hashes the posterior and the forecast
// after every tick.
func TestPosteriorGoldenHash(t *testing.T) {
	const dur = 20 * time.Second
	ticks := int(dur / DefaultTick)
	lm, ok := trace.CanonicalLink("Verizon-LTE-down")
	if !ok {
		t.Fatal("no Verizon-LTE-down model")
	}
	tr := lm.Generate(dur, rand.New(rand.NewSource(7)))
	counts := tickCounts(tr.Opportunities, DefaultTick, ticks, 1)
	fp := mathFingerprint()
	want, pinned := goldenPosteriorHashes[fp]
	if !pinned {
		t.Logf("math fingerprint %s has no pinned hash; checking kernel agreement only", fp)
	}
	kernelHash := ""
	forEachGather(t, func(t *testing.T) {
		f := NewDeliveryForecaster(NewModel(Params{}))
		h := sha256.New()
		var word [8]byte
		put := func(vs []float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		var fc []float64
		for i := 0; i < ticks; i++ {
			f.Tick(counts[i], oracleMode(i))
			put(f.model.probs)
			fc = f.Forecast(fc[:0])
			put(fc)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if pinned && got != want {
			t.Errorf("math %s: posterior hash = %s, want %s (the filter's bits drifted)", fp, got, want)
		}
		if kernelHash != "" && got != kernelHash {
			t.Errorf("posterior hash = %s under this kernel, %s under the first", got, kernelHash)
		}
		kernelHash = got
	})
}
