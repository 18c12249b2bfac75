package ftl

// Garbage collection. Intelligent-query databases are written once and read
// many times (§4.7.2), so the FTL's reclamation problem is not page-level
// invalidation but *fragmentation*: create/delete cycles of block-column
// allocations leave free runs too short for a new database even when total
// free space suffices. Compact relocates databases to coalesce free columns,
// charging an erase (wear) per vacated column — the block-level analogue of
// SSD garbage collection.

// Fragmentation reports how broken-up the free space is: 0 when the largest
// free run equals all free space (or nothing is free), approaching 1 as free
// columns scatter.
func (f *FTL) Fragmentation() float64 {
	free, largest := f.freeRuns()
	if free == 0 {
		return 0
	}
	return 1 - float64(largest)/float64(free)
}

// LargestFreeRun returns the longest contiguous run of free block columns.
func (f *FTL) LargestFreeRun() int {
	_, largest := f.freeRuns()
	return largest
}

func (f *FTL) freeRuns() (total, largest int) {
	run := 0
	for _, o := range f.blockOwner {
		if o == 0 {
			total++
			run++
			if run > largest {
				largest = run
			}
		} else {
			run = 0
		}
	}
	return total, largest
}

// Compact slides databases toward the lowest free columns until the free
// space is one contiguous run, updating each database's start block. It
// returns the number of block columns relocated. Every vacated column is
// erased (its wear counter increments); destination columns are programmed
// in place of the old data.
func (f *FTL) Compact() int {
	type run struct { // a maximal stretch of columns under one owner
		id          DBID
		start, size int
	}
	var runs []run
	i := f.reservedBlocks
	for i < len(f.blockOwner) {
		id := f.blockOwner[i]
		if id == 0 || id == ^DBID(0) {
			i++
			continue
		}
		start := i
		for i < len(f.blockOwner) && f.blockOwner[i] == id {
			i++
		}
		runs = append(runs, run{id: id, start: start, size: i - start})
	}

	moved := 0
	next := f.reservedBlocks // next column every run packs down to
	for _, r := range runs {
		if r.start == next {
			next += r.size
			continue
		}
		// Relocate r to [next, next+size): program destinations, erase
		// sources, update ownership and metadata.
		for k := 0; k < r.size; k++ {
			f.blockOwner[next+k] = r.id
		}
		for k := 0; k < r.size; k++ {
			col := r.start + k
			if col >= next+r.size { // not overlapped by the destination
				f.blockOwner[col] = 0
			}
			f.wear[col]++ // source erased after the move
		}
		// An owner can hold several disjoint runs (feature data and each
		// derived table), so only retarget the start blocks that actually
		// lived inside the run being moved.
		if m := f.owner(r.id); m != nil {
			retarget := func(start *int) {
				if *start >= r.start && *start < r.start+r.size {
					*start += next - r.start
				}
			}
			retarget(&m.Layout.StartBlock)
			for _, reg := range m.held() {
				retarget(&reg.StartBlock)
			}
		}
		moved += r.size
		next += r.size
	}
	return moved
}

// CreateDBCompacting is CreateDB with automatic garbage collection: when no
// contiguous run fits the database but total free space would, the FTL
// compacts and retries — the behaviour a real device's GC provides
// transparently.
func (f *FTL) CreateDBCompacting(name string, layout DBLayout) (*DBMeta, error) {
	meta, err := f.CreateDB(name, layout)
	if err == nil {
		return meta, nil
	}
	layout.StartBlock = f.reservedBlocks
	if verr := layout.Validate(); verr != nil {
		return nil, verr
	}
	if f.FreeBlocks() < max(layout.BlocksPerPlane(), 1) {
		return nil, err // genuinely out of space
	}
	f.Compact()
	return f.CreateDB(name, layout)
}
