package live

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenManifest is live.json, byte for byte, after the ingest script
// below — recorded before Manifest became the one type that is both
// written to disk and published to followers. Old directories must
// open under new code and new directories under old code, so these
// bytes may only change together with the format version.
const goldenManifest = `{
  "version": 1,
  "generation": 4,
  "next_seq": 3,
  "segments": [
    {
      "name": "seg-000000",
      "seq": 0,
      "snap": 1,
      "base": 0,
      "docs": 2,
      "alive": 1,
      "tomb": 1
    },
    {
      "name": "seg-000001",
      "seq": 1,
      "snap": 2,
      "base": 2,
      "docs": 2,
      "alive": 2
    },
    {
      "name": "seg-000002",
      "seq": 2,
      "snap": 3,
      "base": 4,
      "docs": 2,
      "alive": 1,
      "tomb": 1
    }
  ]
}`

func TestManifestBytesGolden(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SealDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	doc := []TermCount{{Term: "a", TF: 2}, {Term: "b", TF: 1}}
	for i := 0; i < 5; i++ { // two seals, one document left buffered
		if _, err := w.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Delete(1); err != nil { // sealed: a committed bitmap version
		t.Fatal(err)
	}
	if _, err := w.Update(4, doc); err != nil { // buffered: a hole, sealed with its replacement
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenManifest {
		t.Fatalf("live.json changed:\n%s\nwant:\n%s", got, goldenManifest)
	}
}
