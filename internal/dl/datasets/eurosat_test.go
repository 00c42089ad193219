package datasets

import (
	"testing"

	"repro/internal/dl"
	"repro/internal/sentinel"
)

func TestEuroSATVectors(t *testing.T) {
	ds := EuroSATVectors(1000, 1)
	if ds.Len() != 1000 || ds.X.Cols != 13 || ds.Classes != 10 {
		t.Fatalf("shape = %d x %d, classes %d", ds.Len(), ds.X.Cols, ds.Classes)
	}
	// balanced labels
	counts := make([]int, 10)
	for _, y := range ds.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Errorf("class %d count = %d", c, n)
		}
	}
}

func TestEuroSATLearnable(t *testing.T) {
	ds := EuroSATVectors(4000, 2)
	train, test := ds.Split(0.8)

	nc := dl.FitNearestCentroid(train)
	baseAcc := nc.Accuracy(test)
	if baseAcc < 0.5 {
		t.Fatalf("centroid baseline accuracy = %v, classes not separable", baseAcc)
	}

	spec := dl.ModelSpec{Arch: dl.ArchMLP, In: 13, Hidden: 32, Classes: 10, Seed: 5}
	net, _ := dl.SingleWorker{}.Train(spec, train, dl.TrainConfig{
		Epochs: 30, BatchSize: 64, LR: 0.3, Momentum: 0.9, Seed: 5,
	})
	mlpAcc := net.Accuracy(test.X, test.Y)
	if mlpAcc < 0.85 {
		t.Errorf("MLP accuracy = %v, want >= 0.85", mlpAcc)
	}
	// Note: the nearest-centroid baseline is close to Bayes-optimal on
	// this class-conditional Gaussian generator, so the MLP approaching
	// (not necessarily beating) it is the expected outcome on pixel
	// vectors; the CNN/patch variant is where spatial context pays off
	// (see experiment E5, experiments.E5 in internal/experiments).
	if mlpAcc < baseAcc-0.08 {
		t.Errorf("MLP (%v) trails centroid baseline (%v) by too much", mlpAcc, baseAcc)
	}
}

func TestEuroSATPatches(t *testing.T) {
	ds := EuroSATPatches(200, 8, 3)
	if ds.X.Cols != 13*8*8 {
		t.Fatalf("patch cols = %d", ds.X.Cols)
	}
	// CNN forward compatibility
	spec := dl.ModelSpec{Arch: dl.ArchCNN, In: 13, PatchH: 8, PatchW: 8, Hidden: 16, Classes: 10, Seed: 1}
	net := spec.Build()
	x, _ := ds.Batch(0, 4)
	out := net.Forward(x)
	if out.Rows != 4 || out.Cols != 10 {
		t.Errorf("CNN forward = %dx%d", out.Rows, out.Cols)
	}
}

func TestSeaIceVectors(t *testing.T) {
	ds := SeaIceVectors(600, 4, 4)
	if ds.Classes != sentinel.NumIceClasses || ds.X.Cols != 2 {
		t.Fatalf("shape: classes=%d cols=%d", ds.Classes, ds.X.Cols)
	}
	train, test := ds.Split(0.8)
	nc := dl.FitNearestCentroid(train)
	if acc := nc.Accuracy(test); acc < 0.4 {
		t.Errorf("sea-ice centroid accuracy = %v (speckle makes this hard but not random)", acc)
	}
}

func TestCropVectors(t *testing.T) {
	ds, classes := CropVectors(400, 5)
	if len(classes) != 4 || ds.Classes != 4 {
		t.Fatalf("crop classes = %d", len(classes))
	}
	for _, y := range ds.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label out of range: %d", y)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := EuroSATVectors(100, 9)
	b := EuroSATVectors(100, 9)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
}
