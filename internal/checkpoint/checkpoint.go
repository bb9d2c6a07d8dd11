// Package checkpoint is the durability primitive of the mining
// pipeline: a write-ahead manifest that records, after every batch of
// emitted records, how much of the output is durable — so a run killed
// at phrase 9M of 11.5M resumes from the last checkpoint instead of
// restarting from zero.
//
// The manifest is a tiny JSON sidecar next to the output file
// (out.jsonl → out.jsonl.ckpt) holding the records-emitted count, the
// output byte offset of the last durable record, and a fingerprint of
// the run configuration (corpus size, seed, model identity). The write
// discipline is the classic WAL ordering:
//
//  1. append records to the output file, flush, fsync
//  2. write the manifest to a temp file in the same directory, fsync
//  3. rename the temp file over the manifest, fsync the directory
//
// A crash at any point leaves the previous manifest intact and
// pointing at a prefix of the durable output; resume truncates any
// torn tail beyond Manifest.Offset and re-mines from Manifest.Records.
// Because mining is deterministic, the resumed output is byte-identical
// to an uninterrupted run.
//
// The package also owns the pipeline's other durable form, the
// versioned store (Versioned, versions.go): immutable version
// directories published by a two-phase install and a CURRENT pointer,
// shared by the model store (internal/persist) and the corpus snapshot
// store (internal/snapshot).
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"recipemodel/internal/faults"
)

// FaultSave fires at the top of every manifest save, before anything
// becomes durable. Tests arm it to simulate a crash after the data
// fsync but before the checkpoint advances — the window a resume must
// survive by re-mining the unrecorded tail.
const FaultSave = "checkpoint.save"

var _ = faults.MustRegister(FaultSave)

// manifestVersion guards against stale sidecar formats.
const manifestVersion = 1

// Manifest records how much of a mining run's output is durable.
type Manifest struct {
	// Version is the manifest wire version.
	Version int `json:"version"`
	// Fingerprint identifies the run configuration (corpus size, seed,
	// model). Resume refuses a checkpoint whose fingerprint differs —
	// continuing a run with a different corpus or model would splice
	// two incompatible outputs.
	Fingerprint string `json:"fingerprint"`
	// Records is the number of complete records durable in the output.
	Records int `json:"records"`
	// Offset is the output byte offset just past the last durable
	// record; any bytes beyond it are a torn tail to truncate.
	Offset int64 `json:"offset"`
	// Quarantined counts inputs rejected into the dead-letter file so
	// far. Inputs consumed = Records + Quarantined, which is where a
	// resume re-enters the corpus; keeping the two counts separate
	// keeps both files byte-identical across a kill.
	Quarantined int `json:"quarantined,omitempty"`
	// QuarantineOffset is the durable byte offset of the dead-letter
	// file (0 when no quarantine sink is configured); a resume
	// truncates the quarantine file's torn tail to it, mirroring
	// Offset for the output.
	QuarantineOffset int64 `json:"quarantineOffset,omitempty"`
}

// PathFor returns the manifest sidecar path for an output file.
func PathFor(output string) string { return output + ".ckpt" }

// Save atomically replaces the manifest at path: temp file in the same
// directory, fsync, rename, fsync the directory. A crash mid-save
// leaves the previous manifest readable.
func Save(path string, m Manifest) error {
	if err := faults.Inject(FaultSave); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	m.Version = manifestVersion
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	if err := WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	return nil
}

// Load reads and validates the manifest at path.
func Load(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("checkpoint: %s: manifest version %d, want %d", path, m.Version, manifestVersion)
	}
	if m.Records < 0 || m.Offset < 0 {
		return Manifest{}, fmt.Errorf("checkpoint: %s: negative records (%d) or offset (%d)", path, m.Records, m.Offset)
	}
	if m.Quarantined < 0 || m.QuarantineOffset < 0 {
		return Manifest{}, fmt.Errorf("checkpoint: %s: negative quarantined (%d) or quarantine offset (%d)", path, m.Quarantined, m.QuarantineOffset)
	}
	return m, nil
}

// WriteFileAtomic writes data to path so a crash can never leave a
// partially written file: the bytes land in a temp file in the same
// directory (same filesystem, so the rename is atomic), are fsync'd,
// renamed over path, and the parent directory is fsync'd so the rename
// itself is durable.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// On any failure, remove the temp so retries don't accumulate junk.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making renames inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
