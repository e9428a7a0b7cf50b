// Package frontdoor keeps every engine configuration on one front door.
//
// api.RunRequest.EngineConfig builds a run's engine configuration — the
// worst-case channel, the round cap, the self-message convention, the
// drop probability, the crash plan with agent 0 protected — and
// api.RunRequest.Build adds a named protocol on top. A sim.Config
// composite literal anywhere else re-derives those rules by hand, so an
// experiment and a served run of the same scenario would be built by
// different code and could drift apart. Every such literal outside
// internal/api, internal/sim and _test.go files is a diagnostic. There is
// no annotation to silence one: take the configuration from EngineConfig
// and override fields on the result.
package frontdoor

import (
	"go/ast"
	"go/types"
	"strings"

	"breathe/internal/lint"
)

// Analyzer is the frontdoor checker.
var Analyzer = &lint.Analyzer{
	Name: "frontdoor",
	Doc:  "forbid sim.Config composite literals outside internal/api, internal/sim and test files: engine configurations come from api.RunRequest",
	Run:  run,
}

// simPath is the package that defines Config.
const simPath = "breathe/internal/sim"

// owners are the packages that may spell a sim.Config out: the engine
// that defines it and the api that builds it.
var owners = map[string]bool{simPath: true, "breathe/internal/api": true}

func run(pass *lint.Pass) error {
	if !pass.InModule() || owners[pass.Canonical()] {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && isSimConfig(pass.TypesInfo.TypeOf(lit)) {
				pass.Reportf(lit.Pos(), "sim.Config literal outside internal/api: build the engine configuration with api.RunRequest.EngineConfig (or Build) and override fields on the result")
			}
			return true
		})
	}
	return nil
}

// isSimConfig reports whether t is sim.Config, through any alias.
func isSimConfig(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == simPath && obj.Name() == "Config"
}
