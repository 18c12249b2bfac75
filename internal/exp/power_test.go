package exp

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestDeepStorePowerPlausible is a physical-sanity check: the modeled
// average power of a scan (dynamic activity energy plus static draw over the
// scan time) must stay within the device's electrical envelope — above the
// 28.5 W static floor, below the 75 W PCIe slot cap (§4.5).
func TestDeepStorePowerPlausible(t *testing.T) {
	dev := ssd.DefaultConfig()
	for _, appName := range workload.AppNames() {
		app, _ := workload.ByName(appName)
		for _, level := range accel.Levels() {
			out, err := RunScan(app, accel.SpecForLevel(level, dev), dev, workload.PaperSpec(app).Features)
			if err != nil {
				t.Fatal(err)
			}
			if out.Unsupported {
				continue
			}
			watts := DeepStoreEnergyJ(out) / out.Seconds
			if watts < 28 || watts > 120 {
				t.Errorf("%s/%v: modeled power %.1f W outside [28, 120]", appName, level, watts)
			}
			// The headline channel-level design must respect the 75 W
			// PCIe envelope.
			if level == accel.LevelChannel && watts > 75 {
				t.Errorf("%s/channel: %.1f W exceeds the PCIe slot cap", appName, watts)
			}
		}
	}
}
