// Versioned model store: the crash-safe deployment form of a trained
// bundle. The versioned-directory mechanics — sequential version
// names, two-phase install, the CURRENT pointer and manifest
// verification — are checkpoint.Versioned's; this file holds only the
// bundle codec. Layout on disk:
//
//	<dir>/
//	  CURRENT                      ← version name, swapped by atomic rename
//	  bundles/
//	    v000001/
//	      bundle.gob               ← gob bundle (SaveBundle wire form)
//	      MANIFEST.json            ← size + sha256 of bundle.gob
//	    v000002/
//	      ...

package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/ner"
)

// Store is a versioned, crash-safe bundle directory.
type Store struct {
	checkpoint.Versioned
}

// OpenStore opens (creating if necessary) a versioned store rooted at
// dir.
func OpenStore(dir string) (*Store, error) {
	v, err := checkpoint.OpenVersioned(dir, "bundles")
	if err != nil {
		return nil, err
	}
	return &Store{Versioned: v}, nil
}

// bundleManifest is the integrity record written next to each bundle.
type bundleManifest struct {
	Version string `json:"version"`
	Size    int64  `json:"size"`
	SHA256  string `json:"sha256"`
}

// Save installs a new version containing the tagger pair and swaps
// CURRENT to it, returning the version name. The install is crash-safe:
// until the final CURRENT rename commits, a loader sees the previous
// version.
func (s *Store) Save(ingredient, instruction *ner.Tagger, opts ner.FeatureOptions) (string, error) {
	return s.Install(func(dir, version string) error {
		// Encode once, hash the exact bytes that hit the disk.
		var buf bytes.Buffer
		if err := SaveBundle(&buf, ingredient, instruction, opts); err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(filepath.Join(dir, "bundle.gob"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		man, err := json.Marshal(bundleManifest{Version: version, Size: int64(buf.Len()), SHA256: checkpoint.Digest(buf.Bytes())})
		if err != nil {
			return err
		}
		return checkpoint.WriteManifest(dir, man)
	})
}

// Load opens the CURRENT version, verifying integrity before decode.
func (s *Store) Load() (ingredient, instruction *ner.Tagger, version string, err error) {
	version, err = s.Current()
	if err != nil {
		return nil, nil, "", err
	}
	ingredient, instruction, err = s.LoadVersion(version)
	return ingredient, instruction, version, err
}

// LoadVersion loads one installed version: the manifest is read first,
// the bundle's size and sha256 are checked against it, and only then is
// the gob decoded. Every error names the offending file; checksum
// failures carry both the expected and the found digest.
func (s *Store) LoadVersion(version string) (ingredient, instruction *ner.Tagger, err error) {
	var man bundleManifest
	if _, err := s.ReadManifest(version, &man); err != nil {
		return nil, nil, err
	}
	bundlePath := filepath.Join(s.VersionDir(version), "bundle.gob")
	data, err := checkpoint.ReadVerified(bundlePath, man.Size, man.SHA256)
	if err != nil {
		return nil, nil, err
	}
	ingredient, instruction, err = LoadBundle(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", bundlePath, err)
	}
	return ingredient, instruction, nil
}
