package sexpr_test

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/progfuzz"
	"pcoup/internal/sexpr"
)

// BenchmarkParse reads two corpora; one op parses a whole corpus.
//   - suite: the four threaded benchmark sources and one wide generated
//     program;
//   - programs: 400 generated programs shaped like the service's program
//     traffic, every 11th one wide (about 1 KB each).
func BenchmarkParse(b *testing.B) {
	var suite []string
	for _, name := range bench.Names() {
		bm, err := bench.Get(name, bench.Threaded)
		if err != nil {
			b.Fatal(err)
		}
		suite = append(suite, bm.Source)
	}
	suite = append(suite, progfuzz.GenerateOpts(1_000_000, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}))
	var programs []string
	for i := 0; i < 400; i++ {
		o := progfuzz.GenOptions{}
		if i%11 == 10 {
			o = progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}
		}
		programs = append(programs, progfuzz.GenerateOpts(int64(i), o))
	}
	for _, c := range []struct {
		name   string
		corpus []string
	}{{"suite", suite}, {"programs", programs}} {
		b.Run(c.name, func(b *testing.B) {
			size := 0
			for _, src := range c.corpus {
				size += len(src)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range c.corpus {
					if _, err := sexpr.Parse(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
