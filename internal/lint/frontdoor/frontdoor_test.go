package frontdoor_test

import (
	"testing"

	"breathe/internal/lint/frontdoor"
	"breathe/internal/lint/linttest"
)

func TestFrontdoor(t *testing.T) {
	linttest.Run(t, "testdata", frontdoor.Analyzer,
		"breathe/internal/sim", "breathe/internal/api", "breathe/internal/bench")
}
