package analyzers_test

import (
	"testing"

	"pimds/internal/analysis/analysistest"
	"pimds/internal/analysis/analyzers"
)

func TestNoPark(t *testing.T) {
	analysistest.Run(t, "testdata/src/nopark", analyzers.NoPark)
}
