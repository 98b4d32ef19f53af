package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ecost/internal/ml"
	"ecost/internal/workloads"
)

// TestMLMSTPRoundTrip checks SaveModels/LoadMLMSTP preserves the
// trained technique: the loaded copy predicts identically (feature-
// aware REPTree, the most structurally complex case) and re-serializes
// to the same bytes.
func TestMLMSTPRoundTrip(t *testing.T) {
	fixture(t)
	var buf bytes.Buffer
	if err := fix.rep.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	loaded, err := LoadMLMSTP(&buf, fix.db)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != fix.rep.Name() {
		t.Fatalf("name = %q, want %q", loaded.Name(), fix.rep.Name())
	}
	if loaded.Models() != fix.rep.Models() {
		t.Fatalf("models = %d, want %d", loaded.Models(), fix.rep.Models())
	}
	if loaded.TrainTime() != fix.rep.TrainTime() {
		t.Fatalf("train time = %v, want %v", loaded.TrainTime(), fix.rep.TrainTime())
	}
	for _, pair := range [][2]string{{"wc", "st"}, {"gp", "wc"}, {"st", "st"}} {
		oa := obsOf(t, pair[0], 1)
		ob := obsOf(t, pair[1], 5)
		want, werr := fix.rep.PredictBest(oa, ob)
		got, gerr := loaded.PredictBest(oa, ob)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%v: error mismatch: %v vs %v", pair, werr, gerr)
		}
		if want != got {
			t.Fatalf("%v: loaded model predicts %v, want %v", pair, got, want)
		}
	}
	var again bytes.Buffer
	if err := loaded.SaveModels(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again.Bytes()) {
		t.Fatal("re-serialized bytes differ from original save")
	}
}

// TestModelFallbackDeterministic probes the off-grid fallback of
// MLMSTP.model at √5 GB, the log-space midpoint of the fixture's 1 and
// 5 GB sizes: a cross-class pair there is exactly as far from key
// (1,5) as from (5,1). The tie must go to the lowest key on every call,
// and a copy reloaded from SaveModels must pick the same model.
func TestModelFallbackDeterministic(t *testing.T) {
	fixture(t)
	var buf bytes.Buffer
	if err := fix.rep.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMLMSTP(&buf, fix.db)
	if err != nil {
		t.Fatal(err)
	}
	modelBytes := func(m ml.Regressor) []byte {
		var b bytes.Buffer
		if err := ml.SaveModel(&b, m); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	size := math.Sqrt(5)
	apps := workloads.Apps()
	for _, appA := range apps {
		oa := obsOf(t, appA.Name, size)
		for _, appB := range apps {
			ob := obsOf(t, appB.Name, size)
			first, err := fix.rep.model(oa, ob)
			if err != nil {
				t.Fatal(err)
			}
			for call := 1; call < 64; call++ {
				if m, _ := fix.rep.model(oa, ob); m != first {
					t.Fatalf("%s+%s at %.3f GB: call %d picked a different model", appA.Name, appB.Name, size, call)
				}
			}
			m, err := loaded.model(oa, ob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(modelBytes(m), modelBytes(first)) {
				t.Fatalf("%s+%s at %.3f GB: reloaded technique picked a different model", appA.Name, appB.Name, size)
			}
		}
	}
}

// TestLoadMLMSTPRejectsDuplicateKey: a model file naming one key twice
// is malformed (SaveModels writes each key once) and fails to load.
func TestLoadMLMSTPRejectsDuplicateKey(t *testing.T) {
	fixture(t)
	var buf bytes.Buffer
	if err := fix.rep.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	var file mlmSTPFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	file.Models = append(file.Models, file.Models[0])
	dup, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMLMSTP(bytes.NewReader(dup), fix.db); err == nil || !strings.Contains(err.Error(), "duplicate model") {
		t.Fatalf("loading a file with a repeated key: err = %v, want a duplicate-model error", err)
	}
}
