package sexpr_test

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/progfuzz"
	"pcoup/internal/sexpr"
)

// BenchmarkParse reads a corpus of the four threaded benchmark sources
// and one wide generated program; one op parses the whole corpus.
func BenchmarkParse(b *testing.B) {
	var corpus []string
	for _, name := range bench.Names() {
		bm, err := bench.Get(name, bench.Threaded)
		if err != nil {
			b.Fatal(err)
		}
		corpus = append(corpus, bm.Source)
	}
	corpus = append(corpus, progfuzz.GenerateOpts(1_000_000, progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}))
	size := 0
	for _, src := range corpus {
		size += len(src)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range corpus {
			if _, err := sexpr.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
