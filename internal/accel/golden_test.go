package accel

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/obs"
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

// goldenScans pins the 5 apps × 3 levels at window 1 on a declared 25 GiB
// layout (the sim_paper sweep), plus a faults-on cell on each read path
// (ReadPageToBuffer at chip level, ReadPage at SSD level). The fault-free
// cells stop at their proven batch cycle, so pageReads counts only the
// simulated reads; the faults-on cells prove no cycle and read every page
// of the database. ReId at chip level is the typed refusal, not a row.
var goldenScans = []goldenCell{
	{app: "ReId", level: LevelSSD, elapsed: 29943475623400, weightRounds: 6407, pageReads: 1743, busBytes: 28557312, executed: 10654},
	{app: "ReId", level: LevelChannel, elapsed: 2729094845200, weightRounds: 3724, pageReads: 3183, busBytes: 52150272, executed: 13251},
	{app: "MIR", level: LevelSSD, elapsed: 64094491195200, weightRounds: 0, pageReads: 1792, busBytes: 29360128, executed: 10817},
	{app: "MIR", level: LevelChannel, elapsed: 1646096280000, weightRounds: 3200, pageReads: 3584, busBytes: 58720256, executed: 14887},
	{app: "MIR", level: LevelChip, elapsed: 15473138000000, weightRounds: 25600, pageReads: 14336, busBytes: 0, executed: 38240},
	{app: "ESTP", level: LevelSSD, elapsed: 39922222958400, weightRounds: 6400, pageReads: 1792, busBytes: 29360128, executed: 10830},
	{app: "ESTP", level: LevelChannel, elapsed: 2578015240000, weightRounds: 3200, pageReads: 3584, busBytes: 58720256, executed: 14887},
	{app: "ESTP", level: LevelChip, elapsed: 17252882000000, weightRounds: 25600, pageReads: 14336, busBytes: 0, executed: 38240},
	{app: "TIR", level: LevelSSD, elapsed: 60686619195200, weightRounds: 0, pageReads: 1792, busBytes: 29360128, executed: 10817},
	{app: "TIR", level: LevelChannel, elapsed: 1526192280000, weightRounds: 3200, pageReads: 3584, busBytes: 58720256, executed: 14887},
	{app: "TIR", level: LevelChip, elapsed: 12401266000000, weightRounds: 25600, pageReads: 14336, busBytes: 0, executed: 38240},
	{app: "TextQA", level: LevelSSD, elapsed: 47083514142400, weightRounds: 0, pageReads: 1629, busBytes: 26689536, executed: 9861},
	{app: "TextQA", level: LevelChannel, elapsed: 1074146990000, weightRounds: 0, pageReads: 3840, busBytes: 62914560, executed: 16320},
	{app: "TextQA", level: LevelChip, elapsed: 3383333800000, weightRounds: 0, pageReads: 15264, busBytes: 0, executed: 40960},
	{app: "TIR", level: LevelChip, errorRate: 0.25, elapsed: 12401372000000, weightRounds: 25600, pageReads: 1638400, busBytes: 0, executed: 4762074, retries: 537045, failures: 6355},
	{app: "TextQA", level: LevelSSD, errorRate: 0.25, elapsed: 47083514142400, weightRounds: 0, pageReads: 1677728, busBytes: 27487895552, executed: 10406102, retries: 549913, failures: 6539},
}

// runGoldenCell scans cell c on a fresh device, with its page-read spans
// going to tr (nil: untraced).
func runGoldenCell(t *testing.T, c goldenCell, tr *obs.Tracer) (goldenCell, error) {
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
	if tr != nil {
		dev.AttachObs(obs.NewRegistry(), tr)
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
		WindowFeaturesPerAccel: 1,
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
		got, err := runGoldenCell(t, want, nil)
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
	if _, err := runGoldenCell(t, goldenCell{app: "ReId", level: LevelChip}, nil); !errors.As(err, &unsup) {
		t.Errorf("ReId at chip level: error = %v, want ErrUnsupported", err)
	}
}
