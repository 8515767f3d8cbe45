package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenFile pins the cycle and op count of every seed-1 simulation: each
// sweep cell, each cells-cached cell, and each program of the programs
// corpus (whose membership it also records), as produced at the commit
// that introduced this benchmark. Runs check every result whose label
// the file holds; labels that depend on the seed (sweep-latency's memory
// seeds) are pinned for seed 1 only. A change that only claims speed must
// leave every count unchanged.
//
//go:embed testdata/cycles_seed1.json
var goldenFile []byte

// goldenCounts returns the pinned counts of a workload by label.
func goldenCounts(workload string) (map[string]counts, error) {
	var all map[string]map[string]counts
	if err := json.Unmarshal(goldenFile, &all); err != nil {
		return nil, fmt.Errorf("golden counts: %w", err)
	}
	return all[workload], nil
}
