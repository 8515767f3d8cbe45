package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"pcoup/internal/bench"
	"pcoup/internal/experiments"
	"pcoup/internal/machine"
)

// SimOptions are the simulation knobs that participate in cache keys.
type SimOptions struct {
	// MaxCycles bounds each cell's simulation (0: simulator default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Trace includes a Chrome trace-event document in cell results.
	Trace bool `json:"trace,omitempty"`
}

// keyDoc is the canonical pre-image of a cache key. Field order is fixed
// by the struct, so equal work produces byte-identical pre-images.
type keyDoc struct {
	Kind       string     `json:"kind"` // "cell", "experiment", or "sweep"
	Name       string     `json:"name,omitempty"`
	Mode       string     `json:"mode,omitempty"`
	SourceSHA  string     `json:"source_sha256,omitempty"`
	MachineSHA string     `json:"machine_sha256"`
	Options    SimOptions `json:"options"`
	Extra      string     `json:"extra,omitempty"`
}

func (d keyDoc) hash() string {
	data, err := json.Marshal(d)
	if err != nil {
		// keyDoc contains only strings and scalars; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// sourceKey names one generated benchmark source variant.
type sourceKey struct {
	bench string
	kind  bench.SourceKind
}

// sourceDigests memoizes sourceSHA per variant: sources are deterministic
// generators, so each is generated and hashed once per process.
var sourceDigests sync.Map // sourceKey -> string

// sourceSHA hashes one benchmark's generated source for the variant a
// mode runs.
func sourceSHA(benchName string, mode experiments.Mode) (string, error) {
	kind := bench.Threaded
	switch mode {
	case experiments.SEQ, experiments.STS:
		kind = bench.Sequential
	case experiments.IDEAL:
		kind = bench.Ideal
	}
	k := sourceKey{benchName, kind}
	if d, ok := sourceDigests.Load(k); ok {
		return d.(string), nil
	}
	b, err := bench.Get(benchName, kind)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(b.Source))
	d := hex.EncodeToString(sum[:])
	sourceDigests.Store(k, d)
	return d, nil
}

// suiteDigest hashes every benchmark source variant the experiments can
// touch. Experiment-level cache keys include it so that any benchmark
// generator change invalidates cached experiment results. Sources are
// deterministic generators, so this is computed once.
var suiteDigest = sync.OnceValue(func() string {
	h := sha256.New()
	names := append(bench.Names(), "modelq")
	for _, name := range names {
		for _, kind := range []bench.SourceKind{bench.Sequential, bench.Threaded, bench.Ideal} {
			b, err := bench.Get(name, kind)
			if err != nil {
				continue // variant does not exist (e.g. lud/ideal)
			}
			fmt.Fprintf(h, "%s/%s\x00%s\x00", name, kind, b.Source)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
})

// machineSHA returns the canonical hash of cfg (nil selects the
// baseline, matching the drivers' defaulting).
func machineSHA(cfg *machine.Config) (string, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	return cfg.Hash()
}

// cellKey keys one (benchmark, mode, machine, options) simulation.
func cellKey(benchName string, mode experiments.Mode, cfg *machine.Config, o SimOptions) (string, error) {
	src, err := sourceSHA(benchName, mode)
	if err != nil {
		return "", err
	}
	msha, err := machineSHA(cfg)
	if err != nil {
		return "", err
	}
	return keyDoc{Kind: "cell", Name: benchName, Mode: string(mode), SourceSHA: src, MachineSHA: msha, Options: o}.hash(), nil
}

// experimentKey keys a whole registry experiment under a machine config.
func experimentKey(name string, cfg *machine.Config, o SimOptions) (string, error) {
	msha, err := machineSHA(cfg)
	if err != nil {
		return "", err
	}
	return keyDoc{Kind: "experiment", Name: name, SourceSHA: suiteDigest(), MachineSHA: msha, Options: o}.hash(), nil
}

// CellContentKey is the exported cell cache key: the SHA-256 content
// address of one (benchmark, mode, machine, options) simulation. The
// fleet gateway routes on it so identical cells land on the same
// backend and find its cache hot.
func CellContentKey(benchName, modeName string, cfg *machine.Config, o SimOptions) (string, error) {
	mode, err := experiments.ParseMode(modeName)
	if err != nil {
		return "", err
	}
	return cellKey(benchName, mode, cfg, o)
}

// SweepCellContentKey is CellContentKey for one cell of a unit-mix
// sweep, which runs on machine.Mix(iu, fpu).
func SweepCellContentKey(c SweepCell, modeName string, o SimOptions) (string, error) {
	return CellContentKey(c.Bench, modeName, machine.Mix(c.IU, c.FPU), o)
}

// ExperimentContentKey is the exported experiment cache key.
func ExperimentContentKey(name string, cfg *machine.Config, o SimOptions) (string, error) {
	return experimentKey(name, cfg, o)
}
