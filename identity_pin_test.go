package objectrunner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"objectrunner/internal/sitegen"
)

// Digests of the wrappers and extracted objects of TestWrapperBytesPinned.
// The serialized stream records the worker-pool size, so the wrapper
// digest is per worker count; the objects are the same at every count.
// A change that moves any of these changes what inference learns — if it
// is meant to, re-record them (the test log prints the new values).
var (
	pinnedWrapperSHA = map[int]string{
		1: "152f1f030569cda0db3788e786f141d432adb76985dd280ec494c734ccaecc23",
		2: "a174c13acfcb55c3dc32d50b428008d7e1f093d26fccb9131592c762d514fb75",
	}
	pinnedObjectsSHA = "3912cb64c611ba7b54c81fb89ea66b0666127ccc800ae6d693947c01322c6c67"
)

// TestWrapperBytesPinned wraps the first source of every sitegen domain
// (seed 42, 8 pages) at workers 1 and 2 and compares the SaveWrapperFile
// bytes and the FlattenObjects JSON of the wrapper's extraction against
// recorded digests. It is the fast tier-1 form of TestGoldenDump: any
// change to role numbering, class ids, sample order or the template
// shows up here as a digest change.
func TestWrapperBytesPinned(t *testing.T) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 8
	bench, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, workers := range []int{1, 2} {
		wrappers, objects := sha256.New(), sha256.New()
		for _, dd := range bench.Domains {
			src := dd.Sources[0]
			wcfg := DefaultConfig()
			wcfg.Workers = workers
			ex, err := NewFromSOD(dd.SOD,
				WithKnowledgeBase(bench.KB),
				WithCorpus(bench.Corpus, 0.05),
				WithConfig(wcfg))
			if err != nil {
				t.Fatal(err)
			}
			w, err := ex.Wrap(src.HTML)
			if err != nil {
				t.Fatalf("workers=%d %s/%s: %v", workers, dd.Spec.Name, src.Spec.Name, err)
			}
			path := filepath.Join(dir, "w.wrapper")
			if err := SaveWrapperFile(w, path); err != nil {
				t.Fatal(err)
			}
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			wrappers.Write(saved)
			batch, err := w.ExtractBatchErr(src.HTML)
			if err != nil {
				t.Fatal(err)
			}
			for _, objs := range batch {
				js, err := json.Marshal(FlattenObjects(objs))
				if err != nil {
					t.Fatal(err)
				}
				objects.Write(append(js, '\n'))
			}
		}
		gotW := hex.EncodeToString(wrappers.Sum(nil))
		gotO := hex.EncodeToString(objects.Sum(nil))
		t.Logf("workers=%d wrappers %s objects %s", workers, gotW, gotO)
		if gotW != pinnedWrapperSHA[workers] {
			t.Errorf("workers=%d: wrapper bytes digest %s, want %s", workers, gotW, pinnedWrapperSHA[workers])
		}
		if gotO != pinnedObjectsSHA {
			t.Errorf("workers=%d: FlattenObjects JSON digest %s, want %s", workers, gotO, pinnedObjectsSHA)
		}
	}
}
