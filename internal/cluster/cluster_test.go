package cluster

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func TestShardedScanLinearScaling(t *testing.T) {
	app, err := workload.ByName("MIR")
	if err != nil {
		t.Fatal(err)
	}
	const features = 512_000
	cfg := ssd.DefaultConfig()
	one, err := ShardedScan(1, app, accel.LevelChannel, cfg, features)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ShardedScan(4, app, accel.LevelChannel, cfg, features)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.Makespan) / float64(four.Makespan)
	if speedup < 3.5 || speedup > 4.5 {
		t.Errorf("4-SSD speedup = %.2f, want ~4 (Fig. 10b linear scaling)", speedup)
	}
	if four.Features != features {
		t.Errorf("sharded features = %d, want %d", four.Features, features)
	}
}

func TestShardedScanBalanced(t *testing.T) {
	app, _ := workload.ByName("TextQA")
	res, err := ShardedScan(3, app, accel.LevelChannel, ssd.DefaultConfig(), 300_001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDevice) != 3 {
		t.Fatalf("%d shards", len(res.PerDevice))
	}
	if imb := res.Imbalance(); imb > 0.05 {
		t.Errorf("shard imbalance = %.3f, want < 5%%", imb)
	}
	var sum int64
	for _, d := range res.PerDevice {
		sum += d.Features
	}
	if sum != 300_001 {
		t.Errorf("shards sum to %d features", sum)
	}
}

func TestShardedScanActivityAggregates(t *testing.T) {
	app, _ := workload.ByName("TIR")
	res, err := ShardedScan(2, app, accel.LevelChannel, ssd.DefaultConfig(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	var flash int64
	for _, d := range res.PerDevice {
		flash += d.Activity.FlashBytes
	}
	if res.Activity.FlashBytes != flash {
		t.Errorf("aggregated flash bytes %d != sum %d", res.Activity.FlashBytes, flash)
	}
}

func TestShardedScanValidation(t *testing.T) {
	app, _ := workload.ByName("MIR")
	if _, err := ShardedScan(0, app, accel.LevelChannel, ssd.DefaultConfig(), 1000); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := ShardedScan(10, app, accel.LevelChannel, ssd.DefaultConfig(), 5); err == nil {
		t.Error("more devices than features accepted")
	}
}

func TestShardedScanUnsupportedPropagates(t *testing.T) {
	reid, _ := workload.ByName("ReId")
	if _, err := ShardedScan(2, reid, accel.LevelChip, ssd.DefaultConfig(), 10_000); err == nil {
		t.Error("chip-level ReId sharded scan succeeded")
	}
}
