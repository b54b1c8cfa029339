package mm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// refSnap is a snapshot together with the array it was taken from, read
// back through At, so a Restore can be checked bit for bit.
type refSnap struct {
	s    *FrameTableSnapshot
	want []PageFrame
}

func readAll(ft *FrameTable) []PageFrame {
	out := make([]PageFrame, ft.Len())
	for i := range out {
		out[i] = ft.At(i)
	}
	return out
}

// refInconsistent is the reference full walk the dirty-tracked scans must
// agree with.
func refInconsistent(frames []PageFrame) []int {
	var out []int
	for i := range frames {
		if !frames[i].consistent() {
			out = append(out, i)
		}
	}
	return out
}

// opReader hands out the bytes of a fuzz input, then zeros.
type opReader []byte

func (r *opReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// runDirtyOps drives a table of 1+size%300 frames through the sequence
// encoded in ops using only the public API, and after every step checks
// the dirty-tracked scans against a reference full walk. After every
// Restore it checks the array equals the restored snapshot bit for bit.
// It returns a description of the first mismatch, or "".
func runDirtyOps(size uint16, ops []byte) string {
	n := 1 + int(size)%300
	ft := NewFrameTable(n)
	rng := rand.New(rand.NewPCG(uint64(size), uint64(len(ops))))
	var snaps []refSnap
	base := -1 // index into snaps of the table's base, -1 while untracked
	r := opReader(ops)
	for step := 0; len(r) > 0; step++ {
		op := r.next() % 9
		switch op {
		case 0: // mutate one descriptor field through Frame
			f := ft.Frame(r.next() * n / 256)
			switch v := r.next(); v % 4 {
			case 0:
				f.Type = FrameType(1 + v/4%4)
			case 1:
				f.UseCount = v / 4 % 3
			case 2:
				f.Validated = !f.Validated
			default:
				f.Owner = v/4%3 - 1
			}
		case 1: // AssignRange, sometimes out of bounds
			start, count := r.next()*n/256, r.next()%64
			_ = ft.AssignRange(start, count, r.next()%4, FrameType(1+r.next()%4))
		case 2:
			ft.CorruptRandomDescriptor(rng)
		case 3:
			want := readAll(ft)
			wantN := 0
			for i := range want {
				if !want[i].consistent() {
					want[i].Validated = want[i].UseCount > 0
					wantN++
				}
			}
			if got := ft.ScanAndRepair(); got != wantN {
				return fmt.Sprintf("step %d: ScanAndRepair = %d, reference repaired %d", step, got, wantN)
			}
			if got := readAll(ft); !slices.Equal(got, want) {
				return fmt.Sprintf("step %d: ScanAndRepair left the table differing from the reference repair", step)
			}
		case 4:
			snaps = append(snaps, refSnap{s: ft.Snapshot(), want: readAll(ft)})
			base = len(snaps) - 1
		case 5: // Restore to the base
			if base < 0 {
				continue
			}
			ft.Restore(snaps[base].s)
			if !slices.Equal(readAll(ft), snaps[base].want) {
				return fmt.Sprintf("step %d: Restore to base differs from the snapshot", step)
			}
		case 6: // Restore to an earlier (non-base) snapshot
			if len(snaps) == 0 {
				continue
			}
			k := r.next() % len(snaps)
			ft.Restore(snaps[k].s)
			base = k
			if !slices.Equal(readAll(ft), snaps[k].want) {
				return fmt.Sprintf("step %d: Restore to snapshot %d differs from it", step, k)
			}
		case 7: // Restore to a snapshot taken from another table
			other := NewFrameTable(n)
			for j := r.next() % 4; j > 0; j-- {
				other.CorruptRandomDescriptor(rng)
			}
			snaps = append(snaps, refSnap{s: other.Snapshot(), want: readAll(other)})
			base = len(snaps) - 1
			ft.Restore(snaps[base].s)
			if !slices.Equal(readAll(ft), snaps[base].want) {
				return fmt.Sprintf("step %d: Restore to a foreign snapshot differs from it", step)
			}
		default: // pin or unpin through Frame
			f := ft.Frame(r.next() * n / 256)
			if f.Type == FramePageTable {
				_ = f.UnpinPageTable()
			} else {
				f.PinAsPageTable()
			}
		}
		want := refInconsistent(readAll(ft))
		if got := ft.InconsistentCount(); got != len(want) {
			return fmt.Sprintf("step %d (op %d): InconsistentCount = %d, reference walk %d", step, op, got, len(want))
		}
		if got := ft.InconsistentFrames(); !slices.Equal(got, want) {
			return fmt.Sprintf("step %d (op %d): InconsistentFrames = %v, reference walk %v", step, op, got, want)
		}
	}
	return ""
}

// TestPropertyDirtyTrackingMatchesFullWalk: random public-API sequences
// leave the dirty-tracked scans and restores indistinguishable from full
// walks and full copies.
func TestPropertyDirtyTrackingMatchesFullWalk(t *testing.T) {
	f := func(size uint16, ops []byte) bool {
		if msg := runDirtyOps(size, ops); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func FuzzFrameTableDirty(f *testing.F) {
	f.Add(uint16(64), []byte{4, 0, 10, 2, 2, 3, 5})
	f.Add(uint16(200), []byte{2, 4, 0, 128, 6, 5, 6, 0, 3})
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		if msg := runDirtyOps(size, ops); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestRestoreToBaseCopiesOnlyDirty: after a Snapshot, a write that
// bypasses the API (here, straight into the array) survives a Restore to
// the base — proof that the base restore copies only tracked entries —
// while a Restore to another snapshot rewrites everything.
func TestRestoreToBaseCopiesOnlyDirty(t *testing.T) {
	ft := NewFrameTable(128)
	s := ft.Snapshot()
	ft.frames[7].Owner = 42 // untracked write
	ft.Frame(9).Owner = 3
	ft.Restore(s)
	if got := ft.At(9).Owner; got != NoDomain {
		t.Fatalf("dirty descriptor not restored: owner %d", got)
	}
	if got := ft.At(7).Owner; got != 42 {
		t.Fatalf("untracked write was rewritten (owner %d): base restore copied clean entries", got)
	}
	other := NewFrameTable(128).Snapshot()
	ft.Restore(other)
	if got := ft.At(7).Owner; got != NoDomain {
		t.Fatalf("foreign restore skipped descriptor 7 (owner %d)", got)
	}
}

func TestAtDoesNotDirty(t *testing.T) {
	ft := NewFrameTable(64)
	ft.Snapshot()
	for i := 0; i < ft.Len(); i++ {
		_ = ft.At(i)
	}
	if len(ft.dirtyList) != 0 {
		t.Fatalf("At dirtied %d descriptors", len(ft.dirtyList))
	}
}

func TestInconsistentCountDoesNotAllocate(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		ft := NewFrameTable(256)
		if snapshot {
			ft.Snapshot()
		}
		ft.CorruptRandomDescriptor(rand.New(rand.NewPCG(3, 3)))
		if allocs := testing.AllocsPerRun(10, func() { benchSink += ft.InconsistentCount() }); allocs != 0 {
			t.Fatalf("InconsistentCount (tracked=%v) allocates %.1f objects", snapshot, allocs)
		}
	}
}

func TestRestoreRejectsSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("restoring a differently sized snapshot did not panic")
		}
	}()
	NewFrameTable(8).Restore(NewFrameTable(16).Snapshot())
}

// benchFrames is the descriptor count of the paper's 8 GB latency host.
const benchFrames = 2097152

// benchDirty is a realistic per-run dirty set: the pins, unpins, grant
// maps and an injected corruption of one forked run.
const benchDirty = 100

// dirtyIndices returns benchDirty distinct descriptor indices spread over
// a table of n frames.
func dirtyIndices(n int) []int {
	rng := rand.New(rand.NewPCG(1, 2))
	idx := rng.Perm(n)[:benchDirty]
	slices.Sort(idx)
	return idx
}

var benchSink int

// BenchmarkFrameTableRestoreFull times the full-array copy a Restore to a
// non-base snapshot performs.
func BenchmarkFrameTableRestoreFull(b *testing.B) {
	ft := NewFrameTable(benchFrames)
	snaps := [2]*FrameTableSnapshot{ft.Snapshot(), ft.Snapshot()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Restore(snaps[i&1])
	}
}

// BenchmarkFrameTableRestoreDirty times one run's worth of descriptor
// writes plus the Restore to the base that undoes them, at 1 GB and 8 GB:
// the cost follows the dirty set, not the table size.
func BenchmarkFrameTableRestoreDirty(b *testing.B) {
	for _, n := range []int{benchFrames / 8, benchFrames} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			ft := NewFrameTable(n)
			s := ft.Snapshot()
			idx := dirtyIndices(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, j := range idx {
					ft.Frame(j).PinAsPageTable()
				}
				ft.Restore(s)
			}
		})
	}
}

// BenchmarkInconsistentCount counts inconsistent descriptors on a tracked
// table with a run's worth of dirty entries, a few of them inconsistent,
// at 1 GB and 8 GB.
func BenchmarkInconsistentCount(b *testing.B) {
	for _, n := range []int{benchFrames / 8, benchFrames} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			ft := NewFrameTable(n)
			ft.Snapshot()
			for k, j := range dirtyIndices(n) {
				f := ft.Frame(j)
				f.Type, f.UseCount = FramePageTable, 1
				f.Validated = k%10 != 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += ft.InconsistentCount()
			}
		})
	}
}
