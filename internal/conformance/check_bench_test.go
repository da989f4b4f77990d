package conformance

import (
	"testing"
	"time"
)

// benchSeeds is the fixed case set BenchmarkConformanceCheck sweeps: the
// generator's default mix of world sizes, team sizes and properties.
const benchSeeds = 16

// BenchmarkConformanceCheck measures the oracle per layer: one op checks
// every case of the fixed seed set.  "full" runs all axes, including the
// determinism axis's streamed re-run through the ATSC codec;
// "skip-determinism" runs the first execution and the correctness axes
// only, so the difference between the two is the cost of the re-run.
func BenchmarkConformanceCheck(b *testing.B) {
	cases := make([]Case, benchSeeds)
	for i := range cases {
		cases[i] = Generate(uint64(i+1), Config{})
	}
	for _, bc := range []struct {
		name string
		opt  CheckOptions
	}{
		{"full", CheckOptions{}},
		{"skip-determinism", CheckOptions{SkipDeterminism: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, cs := range cases {
					if _, err := Check(cs, bc.opt); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*len(cases))/time.Since(start).Seconds(), "cases/s")
		})
	}
}
