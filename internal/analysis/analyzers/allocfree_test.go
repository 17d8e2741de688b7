package analyzers_test

import (
	"testing"

	"pimds/internal/analysis/analysistest"
	"pimds/internal/analysis/analyzers"
)

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, "testdata/src/allocfree", analyzers.AllocFree)
}
