package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
	if !strings.Contains(out.String(), "E16") {
		t.Errorf("-list output lacks E16:\n%s", out.String())
	}
}

func TestRunNoArgsListsAndSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, io.Discard); err != nil {
		t.Fatalf("bare invocation failed: %v", err)
	}
	if !strings.Contains(out.String(), "run with: experiments -run all") {
		t.Errorf("bare invocation prints no usage hint:\n%s", out.String())
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := run([]string{"-run", "E99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunUnknownFormat(t *testing.T) {
	if err := run([]string{"-run", "E16", "-format", "xml"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	// E16 is pure computation — fast enough for a unit test.
	var out bytes.Buffer
	if err := run([]string{"-run", "E16", "-quick"}, &out, io.Discard); err != nil {
		t.Fatalf("quick E16 failed: %v", err)
	}
	if !strings.Contains(out.String(), "E16") {
		t.Errorf("E16 report missing from the output:\n%s", out.String())
	}
}

func TestRunJSONFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "E16", "-quick", "-format", "json"}, &out, io.Discard); err != nil {
		t.Fatalf("json E16 failed: %v", err)
	}
	if !json.Valid(out.Bytes()) {
		t.Errorf("-format json wrote invalid JSON:\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}
