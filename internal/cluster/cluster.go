// Package cluster models multi-SSD DeepStore deployments (§6.3, Fig. 10b):
// a feature database sharded across several simulated devices, each scanning
// its shard with its own in-storage accelerators. The paper's observation —
// "the compute capability of all DeepStore designs scales linearly with the
// number of SSDs" — follows because shards execute independently; the
// cluster's query latency is the slowest shard (the map-reduce barrier
// before the final top-K merge).
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Result aggregates a sharded scan.
type Result struct {
	// Makespan is the slowest shard's scan time — the query latency.
	Makespan sim.Duration
	// PerDevice holds each shard's scan result, indexed by shard.
	PerDevice []accel.ScanResult
	// Activity sums the shards' energy-model activity.
	Activity energy.Activity
	// Features is the total comparisons across shards.
	Features int64
}

// Seconds returns the makespan in seconds.
func (r Result) Seconds() float64 { return r.Makespan.Seconds() }

// ShardedScan shards `features` of the application's database across n
// devices of the given configuration and scans every shard at the given
// accelerator level. Shards are balanced to within one feature.
//
// The shards really do scan in parallel: each device owns a private
// discrete-event engine, so the per-shard simulations run concurrently on
// the host and the aggregate is deterministic regardless of completion
// order (results are reduced in shard order).
func ShardedScan(n int, app *workload.App, level accel.Level, devCfg ssd.Config, features int64) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("cluster: %d devices invalid", n)
	}
	if features < int64(n) {
		return Result{}, fmt.Errorf("cluster: %d features cannot shard across %d devices", features, n)
	}
	outs := make([]accel.ScanResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for dev := 0; dev < n; dev++ {
		share := features / int64(n)
		if int64(dev) < features%int64(n) {
			share++
		}
		wg.Add(1)
		go func(dev int, share int64) {
			defer wg.Done()
			device, err := ssd.New(sim.NewEngine(), devCfg)
			if err != nil {
				errs[dev] = fmt.Errorf("cluster: shard %d: %w", dev, err)
				return
			}
			meta, err := device.CreateDB(fmt.Sprintf("%s-shard%d", app.Name, dev), app.FeatureBytes(), share)
			if err != nil {
				errs[dev] = fmt.Errorf("cluster: shard %d: %w", dev, err)
				return
			}
			outs[dev], err = accel.Scan(accel.ScanRequest{
				Device:                 device,
				Spec:                   accel.SpecForLevel(level, devCfg),
				Net:                    app.SCN,
				Layout:                 meta.Layout,
				WindowFeaturesPerAccel: 1,
			})
			if err != nil {
				errs[dev] = fmt.Errorf("cluster: shard %d: %w", dev, err)
			}
		}(dev, share)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Result{}, err
	}
	res := Result{PerDevice: outs}
	for _, out := range outs {
		res.Activity.Add(out.Activity)
		res.Features += out.Features
		if out.Elapsed > res.Makespan {
			res.Makespan = out.Elapsed
		}
	}
	return res, nil
}

// Imbalance reports the relative gap between the slowest and fastest shard
// (0 for a perfectly balanced cluster).
func (r Result) Imbalance() float64 {
	if r.Makespan == 0 {
		return 0
	}
	fastest := r.Makespan
	for _, d := range r.PerDevice {
		fastest = min(fastest, d.Elapsed)
	}
	return float64(r.Makespan-fastest) / float64(r.Makespan)
}
