package power

import (
	"math"
	"testing"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSection62CalibrationPoints verifies the model reproduces the paper's
// published SPICE numbers exactly (they are the calibration points).
func TestSection62CalibrationPoints(t *testing.T) {
	hier, srl, srlFC := Section62()

	if !close(hier.AreaMM2, 1.4, 0.01) {
		t.Errorf("L2 STQ area %.3f, paper 1.4", hier.AreaMM2)
	}
	if !close(hier.LeakageMW, 95, 0.5) {
		t.Errorf("L2 STQ leakage %.1f, paper 95", hier.LeakageMW)
	}
	if !close(hier.DynamicMW, 440, 2) {
		t.Errorf("L2 STQ dynamic %.1f, paper 440 (10%% lookups)", hier.DynamicMW)
	}

	if !close(srl.AreaMM2, 0.35, 0.01) {
		t.Errorf("SRL+LCF area %.3f, paper 0.35", srl.AreaMM2)
	}
	if !close(srl.LeakageMW, 40, 0.5) {
		t.Errorf("SRL+LCF leakage %.1f, paper 40", srl.LeakageMW)
	}
	if !close(srl.DynamicMW, 30, 0.5) {
		t.Errorf("SRL+LCF dynamic %.1f, paper 30", srl.DynamicMW)
	}

	if !close(srlFC.AreaMM2, 0.45, 0.01) {
		t.Errorf("SRL+LCF+FC area %.3f, paper 0.45", srlFC.AreaMM2)
	}
	if !close(srlFC.LeakageMW, 48, 0.5) {
		t.Errorf("SRL+LCF+FC leakage %.1f, paper 48", srlFC.LeakageMW)
	}
	if !close(srlFC.DynamicMW, 37, 0.5) {
		t.Errorf("SRL+LCF+FC dynamic %.1f, paper 37", srlFC.DynamicMW)
	}
}

func TestSRLSizes(t *testing.T) {
	// The paper: SRL 512 x 6B = 3KB, LCF 2K x 2B = 4KB, total 7KB.
	srlQ := SRAMArray("srl", 512*6, 1)
	lcf := SRAMArray("lcf", 2048*2, 1)
	if srlQ.SizeBytes != 3*1024 || lcf.SizeBytes != 4*1024 {
		t.Fatalf("sizes %d/%d", srlQ.SizeBytes, lcf.SizeBytes)
	}
}

func TestCAMScalesLinearly(t *testing.T) {
	small := CAMQueue("s", 256, 44, 1.0)
	big := CAMQueue("b", 512, 44, 1.0)
	if !close(big.AreaMM2/small.AreaMM2, 2, 0.01) {
		t.Fatalf("area scaling %.2f", big.AreaMM2/small.AreaMM2)
	}
	if !close(big.LeakageMW/small.LeakageMW, 2, 0.01) {
		t.Fatalf("leakage scaling %.2f", big.LeakageMW/small.LeakageMW)
	}
}

func TestLookupFractionScalesDynamicOnly(t *testing.T) {
	full := CAMQueue("f", 512, 44, 1.0)
	filtered := CAMQueue("g", 512, 44, 0.1)
	if !close(filtered.DynamicMW, full.DynamicMW*0.1, 0.01) {
		t.Fatalf("dynamic not scaled: %v vs %v", filtered.DynamicMW, full.DynamicMW)
	}
	if filtered.LeakageMW != full.LeakageMW {
		t.Fatal("leakage should not depend on activity")
	}
}

func TestCAMCostsMoreThanSRAMPerBit(t *testing.T) {
	cam := CAMQueue("c", 512, 44, 1.0)
	ram := SRAMArray("r", 512*44/8, 1.0)
	if cam.AreaMM2 <= ram.AreaMM2 {
		t.Fatal("CAM cell should be larger than SRAM cell")
	}
	if cam.LeakageMW <= ram.LeakageMW {
		t.Fatal("CAM cell should leak more than SRAM cell")
	}
}

func TestSumAggregates(t *testing.T) {
	a := Report{Name: "a", AreaMM2: 1, LeakageMW: 2, DynamicMW: 3, SizeBytes: 4}
	b := Report{Name: "b", AreaMM2: 10, LeakageMW: 20, DynamicMW: 30, SizeBytes: 40, IsCAM: true}
	s := Sum("total", a, b)
	if s.AreaMM2 != 11 || s.LeakageMW != 22 || s.DynamicMW != 33 || s.SizeBytes != 44 || !s.IsCAM {
		t.Fatalf("sum wrong: %+v", s)
	}
}

func TestReportKind(t *testing.T) {
	if k := CAMQueue("Hierarchical L2 STQ", 512, 44, 0.1).Kind(); k != "CAM" {
		t.Fatalf("CAM queue kind = %q", k)
	}
	if k := SRAMArray("SRL queue", 3072, 1).Kind(); k != "SRAM" {
		t.Fatalf("SRAM array kind = %q", k)
	}
}

// TestPaperRatios checks the headline claim: the SRL organisation is
// several times smaller and lower-power than the hierarchical L2 STQ.
func TestPaperRatios(t *testing.T) {
	hier, _, srlFC := Section62()
	if hier.AreaMM2/srlFC.AreaMM2 < 2.5 {
		t.Fatalf("area reduction only %.1fx", hier.AreaMM2/srlFC.AreaMM2)
	}
	if hier.DynamicMW/srlFC.DynamicMW < 5 {
		t.Fatalf("dynamic reduction only %.1fx", hier.DynamicMW/srlFC.DynamicMW)
	}
}

func TestEnergyConstantsPositive(t *testing.T) {
	for name, v := range map[string]float64{
		"CAMEntryOpPJ": CAMEntryOpPJ,
		"SRAMAccessPJ": SRAMAccessPJ,
		"FCAccessPJ":   FCAccessPJ,
	} {
		if v <= 0 {
			t.Fatalf("%s = %v", name, v)
		}
	}
}

func TestActivityEnergyWeighting(t *testing.T) {
	a := ActivityEnergy{CamEntryOps: 1000}
	b := ActivityEnergy{SRLReads: 1000}
	if a.TotalPJ() <= 0 || b.TotalPJ() <= 0 {
		t.Fatal("zero energy for nonzero activity")
	}
	if a.CAMSharePct() != 100 {
		t.Fatalf("pure-CAM share %v", a.CAMSharePct())
	}
	if b.CAMSharePct() != 0 {
		t.Fatalf("no-CAM share %v", b.CAMSharePct())
	}
	var zero ActivityEnergy
	if zero.CAMSharePct() != 0 {
		t.Fatal("zero activity share")
	}
}
