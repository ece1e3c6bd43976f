package analysis_test

import (
	"testing"

	"ftcsn/internal/analysis"
	"ftcsn/internal/analysis/analysistest"
)

func TestDeadExportFixture(t *testing.T) {
	analysistest.Run(t, analysis.DeadExport, "deadexport")
}
