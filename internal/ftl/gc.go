package ftl

// Garbage collection. Intelligent-query databases are written once and read
// many times (§4.7.2), so the FTL's reclamation problem is not page-level
// invalidation but *fragmentation*: create/delete cycles of block-column
// allocations leave free runs too short for a new database even when total
// free space suffices. Compact relocates databases to coalesce free columns,
// charging an erase (wear) per vacated column — the block-level analogue of
// SSD garbage collection, run by allocate whenever no free run fits.

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

// A Move is one extent Compact relocated: a data layout or derived table,
// now at Table.StartBlock, that was at block column From.
type Move struct {
	Table DBLayout
	From  int
}

// TakeMoves returns and forgets the extents Compact moved since its last call.
func (f *FTL) TakeMoves() []Move {
	moves := f.moved
	f.moved = nil
	return moves
}

// Compact slides databases toward the lowest free columns until the free
// space is one contiguous run, updating each database's start block. It
// returns the number of block columns relocated, keeping each moved extent
// for TakeMoves. Every vacated column is erased (its wear counter
// increments); destination columns are programmed in place of the old data.
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
		// derived table), so only retarget the extents that actually lived
		// inside the run being moved.
		if m := f.owner(r.id); m != nil {
			shift := next - r.start
			inRun := func(start int) bool { return start >= r.start && start < r.start+r.size }
			if inRun(m.Layout.StartBlock) {
				m.Layout.StartBlock += shift
				f.moved = append(f.moved, Move{Table: m.Layout, From: m.Layout.StartBlock - shift})
			}
			for _, reg := range m.held() {
				if inRun(reg.StartBlock) {
					reg.StartBlock += shift
					table, _ := reg.table(m.Layout) // placed, so valid
					f.moved = append(f.moved, Move{Table: table, From: reg.StartBlock - shift})
				}
			}
		}
		moved += r.size
		next += r.size
	}
	return moved
}
