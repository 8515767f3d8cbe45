package machine

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"pcoup/internal/faults"
)

// jsonConfig is the on-disk representation of a Config. Unit kinds and the
// interconnect model are spelled by name so configuration files remain
// readable and stable across code changes.
type jsonConfig struct {
	Name         string        `json:"name"`
	Clusters     []jsonCluster `json:"clusters"`
	Interconnect string        `json:"interconnect"`
	Memory       jsonMemory    `json:"memory"`
	MaxDests     int           `json:"max_dests"`
	Seed         uint64        `json:"seed,omitempty"`
	Arbitration  string        `json:"arbitration,omitempty"`
	LockStep     bool          `json:"lock_step_issue,omitempty"`
	MaxThreads   int           `json:"max_threads,omitempty"`
	OpCache      *jsonOpCache  `json:"op_cache,omitempty"`
	Faults       *jsonFaults   `json:"faults,omitempty"`
	Dynamic      *jsonDynamic  `json:"dynamic,omitempty"`
}

type jsonFaults struct {
	Seed             uint64  `json:"seed,omitempty"`
	MemDelayRate     float64 `json:"mem_delay_rate,omitempty"`
	MemDelayMax      int     `json:"mem_delay_max,omitempty"`
	MemDropRate      float64 `json:"mem_drop_rate,omitempty"`
	PortOutageRate   float64 `json:"port_outage_rate,omitempty"`
	PortOutageCycles int     `json:"port_outage_cycles,omitempty"`
	UnitOutageRate   float64 `json:"unit_outage_rate,omitempty"`
	UnitOutageCycles int     `json:"unit_outage_cycles,omitempty"`
}

type jsonOpCache struct {
	Entries     int `json:"entries"`
	MissPenalty int `json:"miss_penalty"`
}

type jsonCluster struct {
	Units     []jsonUnit `json:"units"`
	Registers int        `json:"registers,omitempty"`
}

type jsonUnit struct {
	Kind    string `json:"kind"`
	Latency int    `json:"latency"`
}

type jsonMemory struct {
	Name           string  `json:"name"`
	HitLatency     int     `json:"hit_latency"`
	MissRate       float64 `json:"miss_rate,omitempty"`
	MissPenaltyMin int     `json:"miss_penalty_min,omitempty"`
	MissPenaltyMax int     `json:"miss_penalty_max,omitempty"`
	Banks          int     `json:"banks"`
	BankConflicts  bool    `json:"bank_conflicts,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (c *Config) MarshalJSON() ([]byte, error) {
	jc := jsonConfig{
		Name:       c.Name,
		MaxDests:   c.MaxDests,
		Seed:       c.Seed,
		LockStep:   c.LockStepIssue,
		MaxThreads: c.MaxThreads,
	}
	switch c.Arbitration {
	case PriorityArbitration:
		jc.Arbitration = "priority"
	case RoundRobinArbitration:
		jc.Arbitration = "round-robin"
	}
	jc.Interconnect = interconnectToken(c.Interconnect)
	if c.OpCache.Entries > 0 {
		jc.OpCache = &jsonOpCache{Entries: c.OpCache.Entries, MissPenalty: c.OpCache.MissPenalty}
	}
	if c.Faults != (faults.Model{}) {
		jc.Faults = &jsonFaults{
			Seed:             c.Faults.Seed,
			MemDelayRate:     c.Faults.MemDelayRate,
			MemDelayMax:      c.Faults.MemDelayMax,
			MemDropRate:      c.Faults.MemDropRate,
			PortOutageRate:   c.Faults.PortOutageRate,
			PortOutageCycles: c.Faults.PortOutageCycles,
			UnitOutageRate:   c.Faults.UnitOutageRate,
			UnitOutageCycles: c.Faults.UnitOutageCycles,
		}
	}
	if c.Dynamic != (DynamicModel{}) {
		jc.Dynamic = &jsonDynamic{
			Window:          c.Dynamic.Window,
			Predictor:       c.Dynamic.Predictor,
			PredictorBits:   c.Dynamic.PredictorBits,
			SquashPenalty:   c.Dynamic.SquashPenalty,
			PrefetchStreams: c.Dynamic.PrefetchStreams,
			PrefetchDegree:  c.Dynamic.PrefetchDegree,
		}
	}
	jc.Memory = jsonMemory{
		Name:           c.Memory.Name,
		HitLatency:     c.Memory.HitLatency,
		MissRate:       c.Memory.MissRate,
		MissPenaltyMin: c.Memory.MissPenaltyMin,
		MissPenaltyMax: c.Memory.MissPenaltyMax,
		Banks:          c.Memory.Banks,
		BankConflicts:  c.Memory.ModelBankConflicts,
	}
	for _, cl := range c.Clusters {
		jcl := jsonCluster{Registers: cl.Registers}
		for _, u := range cl.Units {
			jcl.Units = append(jcl.Units, jsonUnit{Kind: u.Kind.String(), Latency: u.Latency})
		}
		jc.Clusters = append(jc.Clusters, jcl)
	}
	return json.MarshalIndent(jc, "", "  ")
}

// UnmarshalJSON implements json.Unmarshaler. A key that names no field
// is an error naming its path, in every section: a typo in a tunable
// must not silently fall back to the default.
func (c *Config) UnmarshalJSON(data []byte) error {
	var jc jsonConfig
	if err := json.Unmarshal(data, &jc); err != nil {
		return err
	}
	if err := checkKeys(data, reflect.TypeOf(jc), ""); err != nil {
		return err
	}
	out := Config{
		Name:          jc.Name,
		MaxDests:      jc.MaxDests,
		Seed:          jc.Seed,
		LockStepIssue: jc.LockStep,
		MaxThreads:    jc.MaxThreads,
	}
	switch jc.Arbitration {
	case "", "priority":
		out.Arbitration = PriorityArbitration
	case "round-robin":
		out.Arbitration = RoundRobinArbitration
	default:
		return fmt.Errorf("machine: unknown arbitration %q", jc.Arbitration)
	}
	ic, err := parseInterconnectToken(jc.Interconnect)
	if err != nil {
		return err
	}
	out.Interconnect = ic
	if jc.OpCache != nil {
		out.OpCache = OpCacheModel{Entries: jc.OpCache.Entries, MissPenalty: jc.OpCache.MissPenalty}
	}
	if jc.Faults != nil {
		out.Faults = faults.Model{
			Seed:             jc.Faults.Seed,
			MemDelayRate:     jc.Faults.MemDelayRate,
			MemDelayMax:      jc.Faults.MemDelayMax,
			MemDropRate:      jc.Faults.MemDropRate,
			PortOutageRate:   jc.Faults.PortOutageRate,
			PortOutageCycles: jc.Faults.PortOutageCycles,
			UnitOutageRate:   jc.Faults.UnitOutageRate,
			UnitOutageCycles: jc.Faults.UnitOutageCycles,
		}
	}
	if jc.Dynamic != nil {
		out.Dynamic = DynamicModel{
			Window:          jc.Dynamic.Window,
			Predictor:       jc.Dynamic.Predictor,
			PredictorBits:   jc.Dynamic.PredictorBits,
			SquashPenalty:   jc.Dynamic.SquashPenalty,
			PrefetchStreams: jc.Dynamic.PrefetchStreams,
			PrefetchDegree:  jc.Dynamic.PrefetchDegree,
		}
	}
	out.Memory = MemoryModel{
		Name:               jc.Memory.Name,
		HitLatency:         jc.Memory.HitLatency,
		MissRate:           jc.Memory.MissRate,
		MissPenaltyMin:     jc.Memory.MissPenaltyMin,
		MissPenaltyMax:     jc.Memory.MissPenaltyMax,
		Banks:              jc.Memory.Banks,
		ModelBankConflicts: jc.Memory.BankConflicts,
	}
	for i, jcl := range jc.Clusters {
		cl := ClusterSpec{Registers: jcl.Registers}
		for _, ju := range jcl.Units {
			k, err := ParseUnitKind(ju.Kind)
			if err != nil {
				return fmt.Errorf("machine: cluster %d: %w", i, err)
			}
			cl.Units = append(cl.Units, UnitSpec{Kind: k, Latency: ju.Latency})
		}
		out.Clusters = append(out.Clusters, cl)
	}
	*c = out
	return nil
}

// checkKeys reports the first key in data, in sorted order, that no
// field of t's JSON form names (path as in "memory.miss_rat" or
// "clusters[1].units[0].latncy"). data has already decoded into t, so
// its objects and arrays are well formed where t has structs and
// slices.
func checkKeys(data []byte, t reflect.Type, path string) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Slice:
		var items []json.RawMessage
		_ = json.Unmarshal(data, &items) // well formed: data decoded into t
		for i, item := range items {
			if err := checkKeys(item, t.Elem(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		var fields map[string]json.RawMessage
		_ = json.Unmarshal(data, &fields) // well formed: data decoded into t
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			key := k
			if path != "" {
				key = path + "." + k
			}
			f, ok := jsonField(t, k)
			if !ok {
				return fmt.Errorf("machine: %s: unknown field", key)
			}
			if err := checkKeys(fields[k], f.Type, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonField finds the field of struct t whose JSON name is exactly name.
func jsonField(t reflect.Type, name string) (reflect.StructField, bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == name {
			return f, true
		}
	}
	return reflect.StructField{}, false
}

func interconnectToken(k InterconnectKind) string {
	switch k {
	case Full:
		return "full"
	case TriPort:
		return "tri-port"
	case DualPort:
		return "dual-port"
	case SinglePort:
		return "single-port"
	case SharedBus:
		return "shared-bus"
	}
	return "full"
}

func parseInterconnectToken(s string) (InterconnectKind, error) {
	switch s {
	case "", "full":
		return Full, nil
	case "tri-port":
		return TriPort, nil
	case "dual-port":
		return DualPort, nil
	case "single-port":
		return SinglePort, nil
	case "shared-bus":
		return SharedBus, nil
	}
	return 0, fmt.Errorf("machine: unknown interconnect %q", s)
}

// Load reads a machine configuration from a JSON file and validates it.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("machine: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %s: %w", path, err)
	}
	return &c, nil
}

// Save writes the configuration to a JSON file.
func (c *Config) Save(path string) error {
	data, err := c.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
