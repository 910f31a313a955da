package iosys_test

import (
	"strings"
	"testing"

	"ceio/internal/baseline"
	"ceio/internal/iosys"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := iosys.DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if got := iosys.DefaultConfig().TotalCredits(); got != 3072 {
		t.Fatalf("C_total = %d, want 3072 (6MB / 2KB)", got)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*iosys.Config)
	}{
		{"LinkBandwidth", func(c *iosys.Config) { c.LinkBandwidth = 0 }},
		{"LLCBytes", func(c *iosys.Config) { c.LLCBytes = 0 }},
		{"LLCBytes >= IOBufSize", func(c *iosys.Config) { c.LLCBytes = iosys.IOBufSize - 1 }},
		{"CC.MaxRate >= CC.MinRate", func(c *iosys.Config) { c.CC.MaxRate = 1; c.CC.MinRate = 2 }},
		{"HostBuffers", func(c *iosys.Config) { c.HostBuffers = -1 }},
	}
	for _, m := range mods {
		cfg := iosys.DefaultConfig()
		m.mod(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.name) {
			t.Errorf("%s: error %q does not name the field", m.name, err)
		}
	}
}

func TestNewMachinePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := iosys.DefaultConfig()
	cfg.LLCBytes = 0
	iosys.NewMachine(cfg, baseline.NewLegacy())
}
