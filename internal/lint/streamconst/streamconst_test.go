package streamconst_test

import (
	"testing"

	"breathe/internal/lint/linttest"
	"breathe/internal/lint/streamconst"
)

func TestStreamconst(t *testing.T) {
	linttest.Run(t, "testdata", streamconst.Analyzer, "breathe/internal/sim", "breathe/internal/stats")
}
