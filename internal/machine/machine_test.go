package machine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBaselineShape(t *testing.T) {
	cfg := Baseline()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	if got := len(cfg.Clusters); got != 6 {
		t.Errorf("baseline clusters = %d, want 6 (4 arith + 2 branch)", got)
	}
	for k, want := range map[UnitKind]int{IU: 4, FPU: 4, MEM: 4, BR: 2} {
		if got := cfg.CountUnits(k); got != want {
			t.Errorf("baseline %v units = %d, want %d", k, got, want)
		}
	}
	if cfg.MaxDests != 2 {
		t.Errorf("baseline MaxDests = %d, want 2", cfg.MaxDests)
	}
	if got := cfg.NumUnits(); got != 14 {
		t.Errorf("baseline NumUnits = %d, want 14", got)
	}
	if got := cfg.ArithClusters(); len(got) != 4 {
		t.Errorf("arith clusters = %v, want 4", got)
	}
	if got := cfg.BranchClusters(); len(got) != 2 {
		t.Errorf("branch clusters = %v, want 2", got)
	}
}

func TestUnitsEnumeration(t *testing.T) {
	cfg := Baseline()
	units := cfg.Units()
	if len(units) != cfg.NumUnits() {
		t.Fatalf("Units() returned %d, NumUnits %d", len(units), cfg.NumUnits())
	}
	for i, u := range units {
		if u.Global != i {
			t.Errorf("unit %d has Global %d", i, u.Global)
		}
		if u.Cluster < 0 || u.Cluster >= len(cfg.Clusters) {
			t.Errorf("unit %d cluster %d out of range", i, u.Cluster)
		}
		if cfg.Clusters[u.Cluster].Units[u.Local].Kind != u.Kind {
			t.Errorf("unit %d kind mismatch", i)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no clusters", func(c *Config) { c.Clusters = nil }},
		{"empty cluster", func(c *Config) { c.Clusters[0].Units = nil }},
		{"bad latency", func(c *Config) { c.Clusters[0].Units[0].Latency = 0 }},
		{"no branch unit", func(c *Config) {
			c.Clusters = c.Clusters[:4] // drop both branch clusters
		}},
		{"no mem unit", func(c *Config) {
			for i := range c.Clusters {
				var kept []UnitSpec
				for _, u := range c.Clusters[i].Units {
					if u.Kind != MEM {
						kept = append(kept, u)
					}
				}
				c.Clusters[i].Units = kept
			}
		}},
		{"zero MaxDests", func(c *Config) { c.MaxDests = 0 }},
		{"bad miss rate", func(c *Config) { c.Memory.MissRate = 1.5 }},
		{"inverted penalty", func(c *Config) {
			c.Memory.MissRate = 0.1
			c.Memory.MissPenaltyMin = 50
			c.Memory.MissPenaltyMax = 20
		}},
		{"no banks", func(c *Config) { c.Memory.Banks = 0 }},
		{"zero hit latency", func(c *Config) { c.Memory.HitLatency = 0 }},
	}
	for _, tc := range cases {
		cfg := Baseline()
		tc.mutate(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestMixShape(t *testing.T) {
	for iu := 1; iu <= 4; iu++ {
		for fpu := 1; fpu <= 4; fpu++ {
			cfg := Mix(iu, fpu)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Mix(%d,%d) invalid: %v", iu, fpu, err)
			}
			if got := cfg.CountUnits(IU); got != iu {
				t.Errorf("Mix(%d,%d) IUs = %d", iu, fpu, got)
			}
			if got := cfg.CountUnits(FPU); got != fpu {
				t.Errorf("Mix(%d,%d) FPUs = %d", iu, fpu, got)
			}
			if got := cfg.CountUnits(MEM); got != 4 {
				t.Errorf("Mix(%d,%d) MEMs = %d, want 4", iu, fpu, got)
			}
			if got := cfg.CountUnits(BR); got != 1 {
				t.Errorf("Mix(%d,%d) BRs = %d, want 1", iu, fpu, got)
			}
		}
	}
}

func TestMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mix(0,1) did not panic")
		}
	}()
	Mix(0, 1)
}

func TestCloneIndependence(t *testing.T) {
	a := Baseline()
	b := a.Clone()
	b.Clusters[0].Units[0].Latency = 99
	b.Name = "changed"
	if a.Clusters[0].Units[0].Latency == 99 {
		t.Error("Clone shares cluster storage")
	}
	if a.Name == "changed" {
		t.Error("Clone shares name")
	}
}

func TestWithHelpers(t *testing.T) {
	base := Baseline()
	ic := base.WithInterconnect(TriPort)
	if ic.Interconnect != TriPort || base.Interconnect != Full {
		t.Error("WithInterconnect mutated the original or failed")
	}
	mm := base.WithMemory(Mem2)
	if mm.Memory.Name != "Mem2" || base.Memory.Name != "Min" {
		t.Error("WithMemory mutated the original or failed")
	}
	sd := base.WithSeed(777)
	if sd.Seed != 777 || base.Seed == 777 {
		t.Error("WithSeed mutated the original or failed")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, cfg := range []*Config{
		Baseline(),
		Mix(2, 3).WithInterconnect(SharedBus).WithMemory(Mem1).WithSeed(5),
	} {
		cfg.MaxThreads = 32
		cfg.LockStepIssue = true
		cfg.Arbitration = RoundRobinArbitration
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.Name != cfg.Name || len(back.Clusters) != len(cfg.Clusters) ||
			back.Interconnect != cfg.Interconnect || back.Memory != cfg.Memory ||
			back.MaxDests != cfg.MaxDests || back.Seed != cfg.Seed ||
			back.Arbitration != cfg.Arbitration || back.LockStepIssue != cfg.LockStepIssue ||
			back.MaxThreads != cfg.MaxThreads {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *cfg)
		}
		for i := range cfg.Clusters {
			if len(back.Clusters[i].Units) != len(cfg.Clusters[i].Units) {
				t.Fatalf("cluster %d unit count mismatch", i)
			}
			for j := range cfg.Clusters[i].Units {
				if back.Clusters[i].Units[j] != cfg.Clusters[i].Units[j] {
					t.Errorf("cluster %d unit %d mismatch", i, j)
				}
			}
		}
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	cfg := Mix(3, 2)
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != cfg.Name || back.NumUnits() != cfg.NumUnits() {
		t.Errorf("Load returned different machine: %s vs %s", back, cfg)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	cfg := Baseline()
	cfg.MaxDests = 0
	data, _ := json.Marshal(cfg)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted an invalid configuration")
	}
}

func TestParseUnitKind(t *testing.T) {
	for _, k := range []UnitKind{IU, FPU, MEM, BR} {
		got, err := ParseUnitKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseUnitKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseUnitKind("bogus"); err == nil {
		t.Error("ParseUnitKind accepted bogus kind")
	}
}

func TestInterconnectTokens(t *testing.T) {
	for _, k := range Interconnects() {
		tok := interconnectToken(k)
		back, err := parseInterconnectToken(tok)
		if err != nil || back != k {
			t.Errorf("interconnect token round trip failed for %v", k)
		}
	}
	if _, err := parseInterconnectToken("bogus"); err == nil {
		t.Error("parseInterconnectToken accepted bogus token")
	}
}

func TestMaxActiveThreadsDefault(t *testing.T) {
	cfg := Baseline()
	if got := cfg.MaxActiveThreads(); got != 64 {
		t.Errorf("default MaxActiveThreads = %d, want 64", got)
	}
	cfg.MaxThreads = 8
	if got := cfg.MaxActiveThreads(); got != 8 {
		t.Errorf("MaxActiveThreads = %d, want 8", got)
	}
}

// TestLoadRejectsUnknownKeys: a misspelt key in any section of a config
// file fails Load with an error naming the key's path, instead of
// leaving the field at its default. Each testdata line is a valid
// config plus one typo, named by the path the error must give.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "unknown_keys.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var named struct{ Name string }
		if err := json.Unmarshal([]byte(line), &named); err != nil {
			t.Fatal(err)
		}
		t.Run(named.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "typo.json")
			if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			if want := "machine: " + named.Name + ": unknown field"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Load: %v, want an error containing %q", err, want)
			}
		})
	}
}
