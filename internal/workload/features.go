package workload

import (
	"fmt"
	"math/rand"
)

// FeatureDB is a synthetic feature-vector database. Small databases (used by
// the examples and the numeric query path) materialize real float32 vectors;
// the timing simulator only needs counts and sizes, for which Spec suffices.
type FeatureDB struct {
	AppName     string
	FeatureDims int
	Vectors     [][]float32
}

// NewFeatureDB materializes n deterministic pseudo-random feature vectors of
// the application's dimensionality. Vectors are unit-scaled so similarity
// scores stay well-conditioned.
func NewFeatureDB(app *App, n int, seed int64) *FeatureDB {
	dims := app.SCN.FeatureElems()
	rng := rand.New(rand.NewSource(seed))
	db := &FeatureDB{AppName: app.Name, FeatureDims: dims, Vectors: make([][]float32, n)}
	for i := range db.Vectors {
		v := make([]float32, dims)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		db.Vectors[i] = v
	}
	return db
}

// Len returns the number of feature vectors.
func (db *FeatureDB) Len() int { return len(db.Vectors) }

// Bytes returns the dense payload size of the database.
func (db *FeatureDB) Bytes() int64 {
	return int64(db.Len()) * int64(db.FeatureDims) * 4
}

// DBSpec describes a feature database by size only, for the timing models.
// The paper warms the SSD with 20 databases of 25 GB each (§6.1).
type DBSpec struct {
	AppName      string
	FeatureBytes int64
	Features     int64
}

// SpecForBytes builds a DBSpec holding as many features as fit in
// totalBytes of dense feature data.
func SpecForBytes(app *App, totalBytes int64) DBSpec {
	fb := app.FeatureBytes()
	return DBSpec{AppName: app.Name, FeatureBytes: fb, Features: totalBytes / fb}
}

// PaperDBBytes is the per-database size used in the evaluation (§6.1).
const PaperDBBytes = 25 << 30 // 25 GiB

// PaperSpec builds the §6.1 evaluation database for an application.
func PaperSpec(app *App) DBSpec { return SpecForBytes(app, PaperDBBytes) }

// String renders, e.g., "MIR: 13107200 features x 2048 B".
func (s DBSpec) String() string {
	return fmt.Sprintf("%s: %d features x %d B", s.AppName, s.Features, s.FeatureBytes)
}
