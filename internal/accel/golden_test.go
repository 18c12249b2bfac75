package accel

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// goldenCell is one scan of the paper sweep with the numbers the event model
// produced for it when the table was recorded. Every field is a consequence
// of event order, so a calendar or read-chain change that reorders two events
// shows up here, in the package that caused it, before it shows up as a
// BENCH_* diff.
type goldenCell struct {
	app   string
	level Level
	// errorRate > 0 turns the flash read-fault model on (seed 7).
	errorRate float64

	elapsed      sim.Duration
	weightRounds int64
	pageReads    uint64
	busBytes     uint64
	executed     uint64
	retries      uint64
	failures     uint64
}

// goldenScans pins the 5 apps × 3 levels at WindowFeaturesPerAccel 1024 on a
// declared 25 GiB layout (the sim_paper sweep), plus a faults-on cell on each
// read path (ReadPageToBuffer at chip level, ReadPage at SSD level).
// ReId at chip level is the typed refusal, not a row.
var goldenScans = []goldenCell{
	{app: "ReId", level: LevelSSD, elapsed: 29943612039813, weightRounds: 6982, pageReads: 3072, busBytes: 50331648, executed: 18583},
	{app: "ReId", level: LevelChannel, elapsed: 2731922479156, weightRounds: 3727, pageReads: 98304, busBytes: 1610612736, executed: 393933},
	{app: "MIR", level: LevelSSD, elapsed: 66376929280000, weightRounds: 0, pageReads: 128, busBytes: 2097152, executed: 864},
	{app: "MIR", level: LevelChannel, elapsed: 1549531497000, weightRounds: 3200, pageReads: 4096, busBytes: 67108864, executed: 16936},
	{app: "MIR", level: LevelChip, elapsed: 14536811491443, weightRounds: 25600, pageReads: 16384, busBytes: 0, executed: 43520},
	{app: "ESTP", level: LevelSSD, elapsed: 39922222958400, weightRounds: 6400, pageReads: 1024, busBytes: 16777216, executed: 6312},
	{app: "ESTP", level: LevelChannel, elapsed: 2519412608123, weightRounds: 3200, pageReads: 32768, busBytes: 536870912, executed: 131680},
	{app: "ESTP", level: LevelChip, elapsed: 16884654253382, weightRounds: 25600, pageReads: 131072, busBytes: 0, executed: 339200},
	{app: "TIR", level: LevelSSD, elapsed: 62969057280000, weightRounds: 0, pageReads: 128, busBytes: 2097152, executed: 864},
	{app: "TIR", level: LevelChannel, elapsed: 1436663040529, weightRounds: 3200, pageReads: 4096, busBytes: 67108864, executed: 16936},
	{app: "TIR", level: LevelChip, elapsed: 11650829056235, weightRounds: 25600, pageReads: 16384, busBytes: 0, executed: 43520},
	{app: "TextQA", level: LevelSSD, elapsed: 50343856651027, weightRounds: 0, pageReads: 52, busBytes: 851968, executed: 332},
	{app: "TextQA", level: LevelChannel, elapsed: 881611149179, weightRounds: 0, pageReads: 1664, busBytes: 27262976, executed: 7360},
	{app: "TextQA", level: LevelChip, elapsed: 2778336811282, weightRounds: 0, pageReads: 6656, busBytes: 0, executed: 18816},
	{app: "TIR", level: LevelChip, errorRate: 0.25, elapsed: 11650935056235, weightRounds: 25600, pageReads: 16384, busBytes: 0, executed: 48657, retries: 5388, failures: 63},
	{app: "TextQA", level: LevelSSD, errorRate: 0.25, elapsed: 52442299206104, weightRounds: 0, pageReads: 52, busBytes: 851968, executed: 335, retries: 14, failures: 0},
}

func runGoldenCell(t *testing.T, c goldenCell) (goldenCell, error) {
	t.Helper()
	app, err := workload.ByName(c.app)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	dev, err := ssd.New(e, ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.errorRate > 0 {
		if err := dev.Flash.SetReadFaults(flash.ReadFaults{ErrorRate: c.errorRate, Inj: fault.New(7)}); err != nil {
			t.Fatal(err)
		}
	}
	fb := app.FeatureBytes()
	meta, err := dev.CreateDB(c.app, fb, (25<<30)/fb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(c.level, dev.Config),
		Net: app.SCN, Layout: meta.Layout,
		WindowFeaturesPerAccel: 1024,
	})
	if err != nil {
		return goldenCell{}, err
	}
	fs := dev.Flash.Stats()
	return goldenCell{
		app: c.app, level: c.level, errorRate: c.errorRate,
		elapsed: res.Elapsed, weightRounds: res.WeightRounds,
		pageReads: fs.PageReads, busBytes: fs.BusBytes, executed: e.Executed,
		retries: fs.ReadRetries, failures: fs.ReadFailures,
	}, nil
}

func TestGoldenScanTable(t *testing.T) {
	for _, want := range goldenScans {
		got, err := runGoldenCell(t, want)
		if err != nil {
			t.Errorf("%s at %v: %v", want.app, want.level, err)
			continue
		}
		if got != want {
			t.Errorf("%s at %v (error rate %v): event model moved\n got %+v\nwant %+v",
				want.app, want.level, want.errorRate, got, want)
		}
	}
	var unsup *ErrUnsupported
	if _, err := runGoldenCell(t, goldenCell{app: "ReId", level: LevelChip}); !errors.As(err, &unsup) {
		t.Errorf("ReId at chip level: error = %v, want ErrUnsupported", err)
	}
}
