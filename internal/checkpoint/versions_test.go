package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestInstallFailedWriteLeavesNothing: when the store's write callback
// fails, the staging directory is removed and neither a version nor a
// CURRENT pointer appears; the next install takes the same name.
func TestInstallFailedWriteLeavesNothing(t *testing.T) {
	root := t.TempDir()
	v, err := OpenVersioned(root, "things")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encode failed")
	if _, err := v.Install(func(dir, version string) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("install = %v, want the write error", err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "things"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("failed install left %v (err %v)", entries, err)
	}
	if _, err := v.Current(); err == nil {
		t.Fatal("failed install published a CURRENT pointer")
	}
	version, err := v.Install(func(dir, version string) error { return WriteManifest(dir, []byte(`{}`)) })
	if err != nil || version != "v000001" {
		t.Fatalf("install after failure: %q, %v", version, err)
	}
	if cur, err := v.Current(); err != nil || cur != version {
		t.Fatalf("CURRENT = %q, %v; want %q", cur, err, version)
	}
}
