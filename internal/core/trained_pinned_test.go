package core

// Pinned trained models: every MLM-STP technique is trained on the
// shared fixture database (sizes 1 and 5 GB, config stride 13 — the
// buildAt shape) and the SHA-256 of its SaveModels bytes, training time
// masked, is compared against testdata/trained_models.sha256. Training
// runs over a worker pool and the REPTree/MLP kernels are tuned for
// speed; this pins that neither changes a single fitted bit, at any
// GOMAXPROCS. Regenerate deliberately with
//
//	go test ./internal/core -run TestTrainedModelsPinned -update

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ecost/internal/ml"
)

// pinnedTechniques mirrors the Env's technique set: linear regression,
// the bagged REPTree of sparse databases, the feature-aware REPTree of
// dense ones, and a short-epoch MLP on a strided row sample.
var pinnedTechniques = []struct {
	name  string
	train func(db *Database) (*MLMSTP, error)
}{
	{"LR", func(db *Database) (*MLMSTP, error) {
		return NewMLMSTP("LR", db, func() ml.Regressor { return ml.NewLinearRegression() })
	}},
	{"REPTree-bagged", func(db *Database) (*MLMSTP, error) {
		return NewMLMSTP("REPTree", db, func() ml.Regressor {
			return ml.NewBagging(5, func() ml.Regressor {
				tr := ml.NewREPTree()
				tr.MinLeaf = 6
				return tr
			})
		})
	}},
	{"REPTree-features", func(db *Database) (*MLMSTP, error) {
		return NewMLMSTPFeatures("REPTree", db, func() ml.Regressor {
			tr := ml.NewREPTree()
			tr.MinLeaf = 2
			return tr
		}, 1)
	}},
	{"MLP", func(db *Database) (*MLMSTP, error) {
		return NewMLMSTPSampled("MLP", db, func() ml.Regressor {
			m := ml.NewMLP()
			m.Epochs = 20
			m.LearningRate = 0.005
			return m
		}, 4)
	}},
}

// trainedDigests trains every pinned technique and renders one
// "sha256 name" line each.
func trainedDigests(t *testing.T, db *Database) string {
	t.Helper()
	var out bytes.Buffer
	for _, tc := range pinnedTechniques {
		s, err := tc.train(db)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := s.SaveModels(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		masked := trainTimeRE.ReplaceAll(buf.Bytes(), []byte(`"train_time_ns":0`))
		fmt.Fprintf(&out, "%x  %s\n", sha256.Sum256(masked), tc.name)
	}
	return out.String()
}

// TestTrainedModelsPinned asserts the trained-model digests at
// GOMAXPROCS 1 and 4 against the committed file.
func TestTrainedModelsPinned(t *testing.T) {
	fixture(t)
	path := filepath.Join("testdata", "trained_models.sha256")
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := trainedDigests(t, fix.db)
		runtime.GOMAXPROCS(prev)
		if *updatePinned {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("GOMAXPROCS=%d: trained models diverged from the pinned digests:\ngot:\n%swant:\n%s", procs, got, want)
		}
	}
}
