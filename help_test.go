package dsm_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestHelpTextUnchanged holds -h of every binary with a flag surface to
// testdata/help, byte for byte. The flag blocks the binaries share
// (apps.Spec, apps.Options and apps.ObsFlags Register) are reworded per
// binary through flag.Lookup(name).Usage, so a refactor of a block is
// silent only if this passes. Regenerate a file (`go build -o /tmp/<name>
// ./cmd/<name> && /tmp/<name> -h 2>&1 | sed '1s|.*|Usage of <name>:|'`)
// only for a change that means to alter the help.
func TestHelpTextUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries")
	}
	dir := t.TempDir()
	for _, name := range []string{"dsmrun", "dsmnode", "dsmtrace", "dsmbench"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
		got, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", name, err, got)
		}
		// The first line names the binary by the path it was started as.
		_, rest, _ := bytes.Cut(got, []byte("\n"))
		got = append([]byte("Usage of "+name+":\n"), rest...)
		want, err := os.ReadFile(filepath.Join("testdata", "help", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s -h differs from testdata/help/%s.txt:\n%s", name, name, got)
		}
	}
}
