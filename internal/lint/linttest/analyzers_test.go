package linttest

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
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

// TestEveryShapeRowFires runs shapelint over its fixture tree, which
// stands in for the module (fixture/shape/internal/proto is read as
// internal/proto), and fails on a row no fixture case fires: every shape
// rule is seen to catch what it names.
func TestEveryShapeRowFires(t *testing.T) {
	diags := Run(t, lint.Shape, fixturePackages(t, "fixture/shape")...)
	for _, name := range lint.ShapeRules() {
		if !slices.ContainsFunc(diags, func(d lint.Diagnostic) bool { return strings.HasPrefix(d.Message, name+": ") }) {
			t.Errorf("shapelint row %q fires on no fixture case", name)
		}
	}
}

// fixturePackages lists the fixture packages under
// internal/lint/testdata/src/<root>, as paths Run takes.
func fixturePackages(t *testing.T, root string) []string {
	t.Helper()
	src := filepath.Join(sharedLoader(t).Root, "internal", "lint", "testdata", "src")
	var paths []string
	err := filepath.WalkDir(filepath.Join(src, filepath.FromSlash(root)), func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if gofiles, _ := filepath.Glob(filepath.Join(p, "*.go")); len(gofiles) > 0 {
			rel, err := filepath.Rel(src, p)
			paths = append(paths, filepath.ToSlash(rel))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("linttest: listing %s: %v", root, err)
	}
	return paths
}
