package wire

import (
	"testing"

	"eyewnder/internal/privacy"
)

// privacy.CheckGeometry restates the frame cap and the report preamble
// (privacy cannot import this package); the two must not drift, or the
// check would admit geometries no report frame can carry.
func TestPrivacyFrameConstantsMatch(t *testing.T) {
	if privacy.MaxReportFrame != MaxFrame {
		t.Errorf("privacy.MaxReportFrame = %d, wire.MaxFrame = %d", privacy.MaxReportFrame, MaxFrame)
	}
	if privacy.ReportFrameHeader != reportPreamble {
		t.Errorf("privacy.ReportFrameHeader = %d, report preamble = %d", privacy.ReportFrameHeader, reportPreamble)
	}
}
