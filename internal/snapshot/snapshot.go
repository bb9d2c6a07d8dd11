// Package snapshot is the versioned corpus store: the crash-safe
// deployment form of a mined recipe corpus. `recipemine mine` produces
// a JSONL corpus; `recipemine snapshot` packs it into an immutable,
// segmented, sha256-manifested snapshot version that the query service
// loads into memory shards and hot-swaps under traffic. Layout on disk:
//
//	<dir>/
//	  CURRENT                      ← version name, swapped by atomic rename
//	  snapshots/
//	    v000001/
//	      MANIFEST.json            ← docs + per-segment size/sha256
//	      seg-000000.jsonl         ← RecipeModel JSONL segments
//	      seg-000001.jsonl
//	    v000002/
//	      ...
//
// The versioned-directory mechanics are checkpoint.Versioned's, the
// same store the model bundles (internal/persist) ship through:
// sequential version names, the two-phase install that leaves CURRENT
// on the previous, fully durable version across a crash, and
// size-then-sha256 verification. This package holds the corpus codec:
// JSONL segments, the segment manifest, doc-count checks and
// segment-name confinement. Loads verify every segment before decoding
// a single record, so a torn or bit-flipped snapshot is a named-file,
// expected-vs-found-digest error, never a half corpus. Load attempts
// retry with resilience.Backoff (transient I/O), and LoadLatestGood
// falls back version by version when the current snapshot is rejected
// — the server keeps serving the newest corpus that checks out.
package snapshot

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/resilience"
)

// FaultLoad fires at the top of every snapshot version load attempt —
// before any file is read. Tests arm it to simulate transient I/O
// failures (exercising the retry path) or a persistently unreadable
// version (exercising the fallback to the previous good snapshot).
const FaultLoad = "snapshot.load"

var _ = faults.MustRegister(FaultLoad)

// segRecords is how many recipe models one segment file holds; small
// enough that a torn tail costs one segment's re-read, large enough
// that a 100k-recipe corpus is a few dozen files, not thousands.
const segRecords = 2048

// Snapshot is one loaded corpus version: the models in their stable
// mined order. Document i of the corpus is Models[i] in every version
// of the truth — global doc ids are positions, and the query service's
// shard assignment (id mod shards) is derived from them, so any shard
// count serves the same ids.
type Snapshot struct {
	Version string
	Models  []*core.RecipeModel
}

// Store is a versioned, crash-safe corpus snapshot directory.
type Store struct {
	checkpoint.Versioned
	// Backoff paces the per-version load retries; the zero value uses
	// the resilience defaults (3 attempts, 10ms base). Tests install a
	// no-op Sleep to keep retry drills clock-free.
	Backoff resilience.Backoff
}

// OpenStore opens (creating if necessary) a snapshot store rooted at
// dir.
func OpenStore(dir string) (*Store, error) {
	v, err := checkpoint.OpenVersioned(dir, "snapshots")
	if err != nil {
		return nil, err
	}
	return &Store{Versioned: v}, nil
}

// segmentEntry is one segment file's integrity record.
type segmentEntry struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	Size    int64  `json:"size"`
	SHA256  string `json:"sha256"`
}

// manifest is the per-version integrity record: total docs plus every
// segment's size and digest. A loader trusts nothing it has not
// checked against this file.
type manifest struct {
	Version  string         `json:"version"`
	Docs     int            `json:"docs"`
	Segments []segmentEntry `json:"segments"`
}

// Build installs the models as a new snapshot version and swaps
// CURRENT to it, returning the version name. Models are encoded in
// their given order (positions are the corpus's global doc ids) into
// fixed-size JSONL segments; the install is two-phase, so a crash at
// any point leaves CURRENT on the previous, fully durable version.
func (s *Store) Build(models []*core.RecipeModel) (string, error) {
	if len(models) == 0 {
		return "", fmt.Errorf("snapshot: refusing to build an empty snapshot")
	}
	return s.Install(func(dir, version string) error {
		man := manifest{Version: version, Docs: len(models)}
		for lo := 0; lo < len(models); lo += segRecords {
			hi := min(lo+segRecords, len(models))
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, m := range models[lo:hi] {
				if err := enc.Encode(m); err != nil {
					return fmt.Errorf("encode doc %d: %w", lo, err)
				}
			}
			name := fmt.Sprintf("seg-%06d.jsonl", len(man.Segments))
			if err := checkpoint.WriteFileAtomic(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
				return err
			}
			man.Segments = append(man.Segments, segmentEntry{
				Name:    name,
				Records: hi - lo,
				Size:    int64(buf.Len()),
				SHA256:  checkpoint.Digest(buf.Bytes()),
			})
		}
		manData, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			return err
		}
		return checkpoint.WriteManifest(dir, manData)
	})
}

// LoadVersion loads one installed version: the manifest is read first,
// every segment's size and sha256 are checked against it, and only
// then are the records decoded. Every error names the offending file;
// checksum failures carry both the expected and the found digest.
func (s *Store) LoadVersion(version string) (*Snapshot, error) {
	if err := faults.Inject(FaultLoad); err != nil {
		return nil, fmt.Errorf("snapshot: load %s: %w", version, err)
	}
	var man manifest
	manPath, err := s.ReadManifest(version, &man)
	if err != nil {
		return nil, err
	}
	// Build refuses empty corpora, so a manifest claiming zero (or
	// negative) docs can only be corruption.
	if man.Docs <= 0 {
		return nil, fmt.Errorf("snapshot: %s: implausible doc count %d", manPath, man.Docs)
	}
	snap := &Snapshot{Version: version}
	for _, seg := range man.Segments {
		// Segment names come from a file an attacker or a corruption may
		// have rewritten; confine them to the version directory.
		if seg.Name != filepath.Base(seg.Name) || seg.Name == "." || seg.Name == ".." {
			return nil, fmt.Errorf("snapshot: %s: invalid segment name %q", manPath, seg.Name)
		}
		segPath := filepath.Join(s.VersionDir(version), seg.Name)
		data, err := checkpoint.ReadVerified(segPath, seg.Size, seg.SHA256)
		if err != nil {
			return nil, err
		}
		records, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("snapshot: %s: %w", segPath, err)
		}
		if len(records) != seg.Records {
			return nil, fmt.Errorf("snapshot: %s: holds %d records, manifest expects %d", segPath, len(records), seg.Records)
		}
		snap.Models = append(snap.Models, records...)
	}
	if len(snap.Models) != man.Docs {
		return nil, fmt.Errorf("snapshot: %s: segments hold %d docs, manifest expects %d", manPath, len(snap.Models), man.Docs)
	}
	return snap, nil
}

// DecodeJSONL parses a mined corpus — one RecipeModel JSON per line,
// the form `recipemine mine` writes and snapshot segments hold. A
// malformed record is a "decode record N" error naming its position.
func DecodeJSONL(r io.Reader) ([]*core.RecipeModel, error) {
	var out []*core.RecipeModel
	dec := json.NewDecoder(r)
	for {
		var m core.RecipeModel
		if err := dec.Decode(&m); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("decode record %d: %w", len(out), err)
		}
		out = append(out, &m)
	}
}

// loadVersionRetry is LoadVersion behind the store's backoff: a
// transient read failure (or an armed snapshot.load fault with a
// limit) is retried; a persistent one comes back as the last error.
func (s *Store) loadVersionRetry(ctx context.Context, version string) (*Snapshot, error) {
	var snap *Snapshot
	err := resilience.Retry(ctx, s.Backoff, func(context.Context) error {
		var lerr error
		snap, lerr = s.LoadVersion(version)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Load opens the CURRENT version, verifying integrity before decode
// and retrying transient failures per the store's backoff.
func (s *Store) Load(ctx context.Context) (*Snapshot, error) {
	version, err := s.Current()
	if err != nil {
		return nil, err
	}
	return s.loadVersionRetry(ctx, version)
}

// LoadLatestGood loads the newest snapshot that passes integrity
// checks: CURRENT first, then earlier versions in descending order
// when CURRENT is torn or corrupt — the automatic-fallback form the
// server boots and reloads through, so one bad publish never takes
// the corpus offline. The rejected slice reports each version that
// failed (named files, expected-vs-found digests) for the caller to
// log; err is non-nil only when no version loads at all.
func (s *Store) LoadLatestGood(ctx context.Context) (snap *Snapshot, rejected []error, err error) {
	current, err := s.Current()
	if err != nil {
		return nil, nil, err
	}
	versions, err := s.Versions()
	if err != nil {
		return nil, nil, err
	}
	// CURRENT first, then everything newer-to-older, skipping CURRENT's
	// own slot in the walk.
	try := []string{current}
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] != current {
			try = append(try, versions[i])
		}
	}
	for _, v := range try {
		snap, lerr := s.loadVersionRetry(ctx, v)
		if lerr == nil {
			return snap, rejected, nil
		}
		rejected = append(rejected, fmt.Errorf("version %s rejected: %w", v, lerr))
	}
	return nil, rejected, fmt.Errorf("snapshot: no loadable version in %s (tried %d)", s.Dir(), len(try))
}
