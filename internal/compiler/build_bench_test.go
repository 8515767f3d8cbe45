package compiler_test

import (
	"context"
	"testing"

	"pcoup/internal/compiler"
	"pcoup/internal/machine"
	"pcoup/internal/progfuzz"
)

// BenchmarkBuild measures the back half alone (optimize, schedule,
// emit) on 64 progfuzz programs, every eighth one wide, lowered outside
// the timer: one op builds all 64.
func BenchmarkBuild(b *testing.B) {
	var srcs []string
	for seed := int64(0); seed < 64; seed++ {
		if seed%8 == 7 {
			srcs = append(srcs, progfuzz.GenerateOpts(1_000_000+seed, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}))
		} else {
			srcs = append(srcs, progfuzz.Generate(seed))
		}
	}
	cfg := machine.Baseline()
	lim := compiler.ServiceLimits()
	lower := func() []*compiler.Lowered {
		out := make([]*compiler.Lowered, len(srcs))
		for i, src := range srcs {
			forms, err := compiler.ParseBounded(src, lim)
			if err != nil {
				b.Fatal(err)
			}
			if out[i], err = compiler.LowerBounded(context.Background(), forms, cfg, compiler.Options{}, lim); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ls := lower()
		b.StartTimer()
		for _, l := range ls {
			if _, _, err := l.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
