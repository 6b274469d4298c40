package decaynet

// One benchmark per reproduction experiment (E1–E14, one per theorem or
// claim of the paper, arXiv 1402.5003; see internal/experiments) and per
// ablation (A1–A4). Each bench runs the corresponding experiment
// end to end, so `go test -bench=.` regenerates every series the paper's
// claims predict; `go run ./cmd/decaybench` prints the same rows.

import (
	"testing"

	"decaynet/internal/experiments"
)

func benchReport(b *testing.B, run func() (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Table.NumRows() == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1TheoryTransfer(b *testing.B) {
	benchReport(b, experiments.E1TheoryTransfer)
}

func BenchmarkE2MetricityGeometric(b *testing.B) {
	benchReport(b, experiments.E2MetricityGeometric)
}

func BenchmarkE3FadingBound(b *testing.B) {
	benchReport(b, experiments.E3FadingBound)
}

func BenchmarkE4StarExample(b *testing.B) {
	benchReport(b, experiments.E4Star)
}

func BenchmarkE5Algorithm1Approx(b *testing.B) {
	benchReport(b, experiments.E5Algorithm1)
}

func BenchmarkE6HardnessTheorem3(b *testing.B) {
	benchReport(b, experiments.E6Theorem3)
}

func BenchmarkE7HardnessTheorem6(b *testing.B) {
	benchReport(b, experiments.E7Theorem6)
}

func BenchmarkE8ZetaPhiGap(b *testing.B) {
	benchReport(b, experiments.E8ZetaPhiGap)
}

func BenchmarkE9WelzlConstruction(b *testing.B) {
	benchReport(b, experiments.E9Welzl)
}

func BenchmarkE10SignalStrengthening(b *testing.B) {
	benchReport(b, experiments.E10Strengthening)
}

func BenchmarkE11SeparationPartition(b *testing.B) {
	benchReport(b, experiments.E11Separation)
}

func BenchmarkE12Amicability(b *testing.B) {
	benchReport(b, experiments.E12Amicability)
}

func BenchmarkE13LocalBroadcast(b *testing.B) {
	benchReport(b, experiments.E13Broadcast)
}

func BenchmarkE14LinkQualityVsDistance(b *testing.B) {
	benchReport(b, experiments.E14LinkQuality)
}

func BenchmarkAblationSeparationConstant(b *testing.B) {
	benchReport(b, experiments.AblationSeparation)
}

func BenchmarkAblationGammaEstimator(b *testing.B) {
	benchReport(b, experiments.AblationGammaEstimator)
}

func BenchmarkAblationZetaBisection(b *testing.B) {
	benchReport(b, experiments.AblationZetaTolerance)
}

func BenchmarkAblationEnvironmentFeatures(b *testing.B) {
	benchReport(b, experiments.AblationEnvironment)
}

// Micro-benchmarks of the core primitives, for performance tracking.

func BenchmarkZeta64Nodes(b *testing.B) {
	inst, err := PlaneWorkload(WorkloadConfig{
		Links: 32, Side: 100, MinLen: 1, MaxLen: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	space, err := NewGeometricSpace(inst.Points, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if z := Zeta(space); z <= 0 {
			b.Fatal("bad zeta")
		}
	}
}

func BenchmarkAlgorithm1_100Links(b *testing.B) {
	inst, err := PlaneWorkload(WorkloadConfig{
		Links: 100, Side: 80, MinLen: 1, MaxLen: 3, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := GeometricSystem(inst, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := UniformPower(sys, 1)
	all := AllLinks(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Algorithm1(sys, p, all); len(got) == 0 {
			b.Fatal("empty selection")
		}
	}
}

func BenchmarkSceneBuild40Nodes(b *testing.B) {
	cfg := OfficeConfig{RoomsX: 4, RoomsY: 4, RoomSize: 10, DoorWidth: 1.5}
	scene, err := Office(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scene.PathLossExp = 3
	scene.ShadowSigmaDB = 6
	scene.Reflectivity = 0.3
	w, h := OfficeExtent(cfg)
	nodes := RandomNodes(40, w, h, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scene.BuildSpace(nodes); err != nil {
			b.Fatal(err)
		}
	}
}
