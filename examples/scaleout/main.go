// Scale-out: shard a feature database across multiple DeepStore SSDs
// (§6.3, Fig. 10b). Each device scans its shard with its own channel-level
// accelerators; the cluster's query latency is the slowest shard, so
// DeepStore's compute capability scales linearly with the number of devices
// while the GPU+SSD baseline only aggregates read bandwidth.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	app, err := deepstore.AppByName("MIR")
	if err != nil {
		log.Fatal(err)
	}
	const features = 2_000_000 // ~4 GB of audio embeddings

	fmt.Printf("MIR library: %d features (%.1f GB) across a DeepStore cluster\n\n",
		features, float64(features*app.FeatureBytes())/1e9)
	fmt.Println("SSDs  shard scan   cluster speedup")
	var oneSSD float64
	for _, n := range []int{1, 2, 4, 8} {
		res, err := deepstore.ShardedScan(n, app, deepstore.LevelChannel,
			deepstore.DefaultDeviceConfig(), features)
		if err != nil {
			log.Fatal(err)
		}
		sec := res.Seconds()
		if n == 1 {
			oneSSD = sec
		}
		fmt.Printf("%4d  %8.3f s  %10.2fx  (imbalance %.1f%%)\n",
			n, sec, oneSSD/sec, res.Imbalance()*100)
	}
	fmt.Println("\nlinear scaling: every added SSD brings its own 32 channel-level")
	fmt.Println("accelerators along with its flash bandwidth (§6.3).")
}
