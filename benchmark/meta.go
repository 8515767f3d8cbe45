package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// meta describes the conditions of a run, so two result files can be
// judged comparable.
type meta struct {
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	Revision   string     `json:"vcs_revision"`
	Dirty      bool       `json:"vcs_dirty"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds_per_workload"`
	Started    time.Time  `json:"started"`
	DurationS  float64    `json:"duration_s"`
	LoadStart  [3]float64 `json:"loadavg_start"`
	LoadEnd    [3]float64 `json:"loadavg_end"`
}

func newMeta(seed int64, seconds float64) *meta {
	m := &meta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Revision:   "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Started:    time.Now(),
		LoadStart:  loadavg(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// finish stamps the end of the run.
func (m *meta) finish() {
	m.DurationS = time.Since(m.Started).Seconds()
	m.LoadEnd = loadavg()
}

// busy reports whether the host was already loaded past its CPU count at
// the start, which makes every timing of the run suspect.
func (m *meta) busy() bool { return m.LoadStart[0] > float64(m.NumCPU) }

// loadavg reads the 1, 5 and 15 minute load averages (zeros where
// /proc/loadavg is unavailable).
func loadavg() [3]float64 {
	var out [3]float64
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return out
	}
	f := strings.Fields(string(data))
	for i := 0; i < 3 && i < len(f); i++ {
		out[i], _ = strconv.ParseFloat(f[i], 64)
	}
	return out
}
