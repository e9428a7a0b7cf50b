package leafloop_test

import (
	"testing"

	"breathe/internal/lint/leafloop"
	"breathe/internal/lint/linttest"
)

func TestLeafloop(t *testing.T) {
	linttest.Run(t, "testdata", leafloop.Analyzer,
		"breathe/internal/rng", "breathe/internal/sim")
}
