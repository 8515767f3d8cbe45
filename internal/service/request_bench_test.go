package service

import (
	"context"
	"testing"
	"time"

	"pcoup/internal/progfuzz"
)

// requestCorpus is shaped like the benchmark's program traffic: 64
// progfuzz programs, every 11th one wide.
func requestCorpus() []string {
	var out []string
	for i := 0; i < 64; i++ {
		o := progfuzz.GenOptions{}
		if i%11 == 10 {
			o = progfuzz.GenOptions{MaxArraySize: 128, WideForall: true}
		}
		out = append(out, progfuzz.GenerateOpts(int64(i), o))
	}
	return out
}

// programRequest runs one verified program request in process, the way
// a backend serves it: normalize, park, then the worker's build, run and
// verify. round sets a fresh cycle budget, so every request misses the
// cache.
func programRequest(tb testing.TB, srv *Server, src string, round int) {
	spec := JobSpec{
		Program: &ProgramSpec{Source: src, Verify: true},
		Options: SimOptions{MaxCycles: DefaultProgramCycles + int64(round)},
	}
	cfg, work, err := spec.normalize(srv.presets)
	if err != nil {
		tb.Fatal(err)
	}
	job := newJob("j-000001", spec, cfg, time.Now())
	if _, err := srv.runProgramJob(context.Background(), job, srv.park(work)); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkProgramRequest measures one in-process program request
// (normalize → park → build → run → verify) over requestCorpus; one op
// is one request.
func BenchmarkProgramRequest(b *testing.B) {
	srcs := requestCorpus()
	srv := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		programRequest(b, srv, srcs[i%len(srcs)], i)
	}
}
