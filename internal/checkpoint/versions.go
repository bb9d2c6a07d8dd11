// Versioned stores: the crash-safe deployment form shared by the model
// store (internal/persist) and the corpus snapshot store
// (internal/snapshot). Layout on disk:
//
//	<root>/
//	  CURRENT                      ← version name, swapped by atomic rename
//	  <kind>/                      ← "bundles", "snapshots", ...
//	    v000001/
//	      MANIFEST.json            ← size + sha256 of every payload file
//	      ...                      ← the store's payload files
//	    v000002/
//	      ...
//
// Publishing a version is a two-phase install: the payload and its
// manifest are written and fsync'd inside a hidden .install-<version>
// directory, that directory is renamed to <kind>/<version> (atomic),
// and only then is CURRENT swapped — also via atomic rename — to point
// at it. A crash anywhere in the sequence leaves CURRENT naming the
// previous, fully durable version; a half-written install is an
// orphaned directory that a later install overwrites, never a version
// CURRENT can name. Loads check each payload file's size and sha256
// against the manifest before the store decodes a byte, so silent
// corruption is a named error, not a bad model or a half corpus.

package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"recipemodel/internal/faults"
)

// FaultInstall fires after a version directory is durable but before
// CURRENT swings to it — the exact window a crash must not be able to
// corrupt. Tests arm it to prove a store stays loadable at the
// previous version.
const FaultInstall = "checkpoint.install"

var _ = faults.MustRegister(FaultInstall)

// currentFile is the pointer file naming the serving version.
const currentFile = "CURRENT"

// manifestFile is the integrity record inside every version directory.
const manifestFile = "MANIFEST.json"

// Versioned is a directory of immutable, sequentially named versions
// of one kind of artifact plus the CURRENT pointer naming the one that
// serves. Stores embed it and add only their payload codec.
type Versioned struct {
	root string
	kind string
}

// OpenVersioned opens (creating if necessary) a versioned directory
// rooted at root whose versions live under root/kind.
func OpenVersioned(root, kind string) (Versioned, error) {
	if err := os.MkdirAll(filepath.Join(root, kind), 0o755); err != nil {
		return Versioned{}, fmt.Errorf("checkpoint: open %s store: %w", kind, err)
	}
	return Versioned{root: root, kind: kind}, nil
}

// Dir returns the store root.
func (v Versioned) Dir() string { return v.root }

// VersionDir returns the directory an installed version lives in.
func (v Versioned) VersionDir(version string) string {
	return filepath.Join(v.root, v.kind, version)
}

// Versions lists the installed versions in ascending order (staging
// directories from interrupted installs are excluded).
func (v Versioned) Versions() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(v.root, v.kind))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list %s versions: %w", v.kind, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "v") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// nextVersion allocates the next sequential version name.
func (v Versioned) nextVersion() (string, error) {
	versions, err := v.Versions()
	if err != nil {
		return "", err
	}
	n := 0
	for _, name := range versions {
		var i int
		if _, err := fmt.Sscanf(name, "v%06d", &i); err == nil && i > n {
			n = i
		}
	}
	return fmt.Sprintf("v%06d", n+1), nil
}

// Current reads the serving version from CURRENT; an empty pointer is
// an error (it names nothing servable).
func (v Versioned) Current() (string, error) {
	path := filepath.Join(v.root, currentFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	version := strings.TrimSpace(string(data))
	if version == "" {
		return "", fmt.Errorf("checkpoint: %s is empty", path)
	}
	return version, nil
}

// SetCurrent atomically points CURRENT at an installed version — also
// the rollback primitive: point it back at a previous version.
func (v Versioned) SetCurrent(version string) error {
	if _, err := os.Stat(v.VersionDir(version)); err != nil {
		return fmt.Errorf("checkpoint: set current: %s version %q not installed: %w", v.kind, version, err)
	}
	if err := WriteFileAtomic(filepath.Join(v.root, currentFile), []byte(version+"\n"), 0o644); err != nil {
		return fmt.Errorf("checkpoint: set current %s: %w", version, err)
	}
	return nil
}

// Install publishes a new version and swaps CURRENT to it, returning
// the version name. write fills the staging directory dir with the
// payload and manifest of version, each file written with
// WriteFileAtomic; the directory is then renamed into place and made
// durable, and only then does CURRENT swing. Until that final rename
// commits, a loader sees the previous version.
func (v Versioned) Install(write func(dir, version string) error) (version string, err error) {
	version, err = v.nextVersion()
	if err != nil {
		return "", err
	}
	kindDir := filepath.Join(v.root, v.kind)
	tmpDir := filepath.Join(kindDir, ".install-"+version)
	// A previous interrupted install may have left the staging dir behind.
	if err := os.RemoveAll(tmpDir); err != nil {
		return "", fmt.Errorf("checkpoint: install %s %s: %w", v.kind, version, err)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint: install %s %s: %w", v.kind, version, err)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmpDir)
		}
	}()
	if err := write(tmpDir, version); err != nil {
		return "", fmt.Errorf("checkpoint: install %s %s: %w", v.kind, version, err)
	}
	if err := os.Rename(tmpDir, v.VersionDir(version)); err != nil {
		return "", fmt.Errorf("checkpoint: install %s %s: %w", v.kind, version, err)
	}
	if err := SyncDir(kindDir); err != nil {
		return "", fmt.Errorf("checkpoint: install %s %s: %w", v.kind, version, err)
	}
	// The version is durable; the swap below publishes it. A crash in
	// this window (the armed fault simulates one) must leave CURRENT on
	// the previous version.
	if err := faults.Inject(FaultInstall); err != nil {
		return version, fmt.Errorf("checkpoint: install %s %s: %w", v.kind, version, err)
	}
	return version, v.SetCurrent(version)
}

// Digest returns the hex sha256 of data, the form manifests record.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// WriteManifest writes the manifest bytes of a version being staged in
// dir (the directory Install hands its write callback).
func WriteManifest(dir string, data []byte) error {
	return WriteFileAtomic(filepath.Join(dir, manifestFile), append(data, '\n'), 0o644)
}

// ReadManifest decodes the manifest of an installed version into m and
// returns the manifest's path, which callers name in their own errors.
func (v Versioned) ReadManifest(version string, m any) (string, error) {
	path := filepath.Join(v.VersionDir(version), manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return path, fmt.Errorf("checkpoint: %w", err)
	}
	if err := json.Unmarshal(data, m); err != nil {
		return path, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return path, nil
}

// ReadVerified reads the payload file at path and checks it against
// its manifest entry: size first, then sha256. Every error names the
// file; a checksum failure carries both the expected and the found
// digest.
func ReadVerified(path string, size int64, sha string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if int64(len(data)) != size {
		return nil, fmt.Errorf("checkpoint: %s: size %d bytes, manifest expects %d", path, len(data), size)
	}
	if got := Digest(data); got != sha {
		return nil, fmt.Errorf("checkpoint: %s: checksum mismatch: manifest expects sha256 %s, file has %s", path, sha, got)
	}
	return data, nil
}
