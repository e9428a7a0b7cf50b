package main

import (
	"testing"

	"breathe/internal/core"
)

func TestParseVariant(t *testing.T) {
	cases := []struct {
		in   string
		want core.Variant
	}{
		{"paper", core.Variant{}},
		{"", core.Variant{}},
		{"no-breathe", core.Variant{NoBreathe: true}},
		{"first-message", core.Variant{FirstMessage: true}},
		{"prefix-subset", core.Variant{PrefixSubset: true}},
		{"full-majority", core.Variant{FullSampleMajority: true}},
	}
	for _, c := range cases {
		got, err := parseVariant(c.in)
		if err != nil {
			t.Errorf("parseVariant(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("parseVariant(%q) = %+v", c.in, got)
		}
	}
	if _, err := parseVariant("bogus"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestRunBroadcastSmall(t *testing.T) {
	if err := run([]string{"-n", "256", "-eps", "0.3", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	if err := run([]string{"-n", "128", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPlot(t *testing.T) {
	if err := run([]string{"-n", "128", "-eps", "0.3", "-quiet", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConsensus(t *testing.T) {
	if err := run([]string{"-protocol", "consensus", "-n", "256", "-eps", "0.3", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAsyncModes(t *testing.T) {
	for _, mode := range []string{"offsets", "selfsync"} {
		if err := run([]string{"-protocol", "async", "-n", "256", "-eps", "0.3", "-mode", mode, "-quiet"}); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	for _, proto := range []string{"immediate-forward", "voter", "two-choice", "silent-wait"} {
		if err := run([]string{"-protocol", proto, "-n", "128", "-eps", "0.3", "-rounds", "50", "-quiet"}); err != nil {
			t.Fatalf("protocol %s: %v", proto, err)
		}
	}
}

func TestRunVariantFlag(t *testing.T) {
	if err := run([]string{"-n", "128", "-eps", "0.3", "-variant", "no-breathe", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "128", "-eps", "0.3", "-variant", "bogus"}); err == nil {
		t.Fatal("bad variant accepted")
	}
}

func TestRunValidation(t *testing.T) {
	cases := [][]string{
		{"-n", "1"},
		{"-eps", "0.9"},
		{"-eps", "NaN"},
		{"-eps", "1e-300"},
		{"-eps", "1e-12"},
		{"-protocol", "unknown"},
		{"-zzz"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
