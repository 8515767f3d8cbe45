package machine

import (
	"crypto/sha256"
	"encoding/hex"
)

// Canonical returns a normalized copy of the configuration suitable for
// content addressing: the display labels (config name and memory model
// name) are cleared, defaulted fields are made explicit, and everything
// that influences compilation or simulation is preserved. Two configs
// with equal Canonical forms produce identical schedules and identical
// simulation results.
func (c *Config) Canonical() *Config {
	out := c.Clone()
	out.Name = ""
	out.Memory.Name = ""
	out.MaxThreads = out.MaxActiveThreads()
	if out.Memory.MissRate == 0 {
		// Penalty bounds are never sampled when nothing misses.
		out.Memory.MissPenaltyMin = 0
		out.Memory.MissPenaltyMax = 0
	}
	if out.OpCache.Entries == 0 {
		out.OpCache.MissPenalty = 0
	}
	out.Faults = out.Faults.Canonical()
	out.Dynamic = out.Dynamic.Canonical()
	return out
}

// CanonicalJSON serializes the canonical form. The JSON field order is
// fixed by the jsonConfig struct, so equal canonical configs yield
// byte-identical output.
func (c *Config) CanonicalJSON() ([]byte, error) {
	return c.Canonical().MarshalJSON()
}

// Hash returns the hex SHA-256 of the canonical serialization. It is the
// machine-configuration component of content-addressed result cache keys:
// renaming a config (or its memory model) does not change its hash, while
// any semantically meaningful edit does.
func (c *Config) Hash() (string, error) {
	data, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
