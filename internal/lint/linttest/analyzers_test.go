package linttest

import (
	"testing"

	"repro/internal/lint"
)

// Each fixture tree carries three kinds of cases per analyzer: positive
// hits (// want expectations), clean idiomatic code (no expectations),
// and directive-suppression cases (justified //dsm:nolint stays quiet,
// an unjustified one is called out).

func TestDetlint(t *testing.T) {
	Run(t, lint.Det, "fixture/det/core", "fixture/det/pkg")
}

func TestFramelint(t *testing.T) {
	Run(t, lint.Frame, "fixture/frame")
}

func TestErrlint(t *testing.T) {
	Run(t, lint.Err, "fixture/errs")
}

func TestHotlint(t *testing.T) {
	Run(t, lint.Hot, "fixture/hot")
}
