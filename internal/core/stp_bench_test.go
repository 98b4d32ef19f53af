package core

import "testing"

// BenchmarkMLMSTPTrain trains each pinned technique's full model set on
// the fixture database per op — the training pool end to end, at the
// benchmark's GOMAXPROCS.
func BenchmarkMLMSTPTrain(b *testing.B) {
	fixture(b)
	for _, tc := range pinnedTechniques {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.train(fix.db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
