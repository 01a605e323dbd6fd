package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mmt/internal/core"
	"mmt/internal/race"
	"mmt/internal/workloads"
)

// Storage reuse (core/storage.go): Execute releases its core, and the next
// run draws the released tag stores, tables, rings and uops. These tests
// pin that a run on reused storage equals a run on fresh storage, that a
// result keeps nothing of the storage it was computed on, and that the
// reuse is what keeps memory and allocations flat.

// drainPools empties every storage pool: a sync.Pool drops what it holds
// over two garbage collections, so the next run builds fresh storage.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

func execute(t *testing.T, task Task) *Result {
	t.Helper()
	out, err := task.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// reusePoints is the sixteen kernels under Base, MMT-FXR and Limit at two
// and four threads: both workload modes, merging on and off, and identical
// inputs.
func reusePoints() []Task {
	var ts []Task
	for _, app := range workloads.All() {
		for _, p := range []Preset{PresetBase, PresetMMTFXR, PresetLimit} {
			for _, threads := range []int{2, 4} {
				ts = append(ts, Task{App: app, Preset: p, Threads: threads})
			}
		}
	}
	return ts
}

// TestReusedStorageMatchesFresh runs every point on fresh storage, then
// again on storage that a different point just dirtied — another kernel,
// preset or thread count on a machine with a larger window and fetch
// queue, run to the end or cut off mid-flight by its cycle bound — and
// requires every statistic, memory event and energy figure to be equal.
func TestReusedStorageMatchesFresh(t *testing.T) {
	points := reusePoints()
	if race.Enabled {
		// The detector slows a run twentyfold: keep one point per kernel,
		// cycling through the six preset and thread pairs.
		var some []Task
		for k := 0; 6*k < len(points); k++ {
			some = append(some, points[6*k+k%6])
		}
		points = some
	}
	fresh := make([]*Result, len(points))
	for i, task := range points {
		drainPools()
		fresh[i] = execute(t, task)
	}
	for i, task := range points {
		dirty := points[(i+1)%len(points)]
		cut := i%2 == 1
		dirty.Mutate = func(c *core.Config) {
			c.ROBSize, c.IQSize, c.FetchQueue = 2*c.ROBSize, 2*c.IQSize, 2*c.FetchQueue
			if cut {
				c.MaxCycles = 2000 // fails with the window full
			}
		}
		if _, err := dirty.Execute(); (err != nil) != cut {
			t.Fatalf("%s: cut off %v, error %v", dirty.Name(), cut, err)
		}
		if got := execute(t, task); !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s: reused storage changed the result:\nfresh:  %+v %+v\nreused: %+v %+v",
				task.Name(), *fresh[i].Stats, fresh[i].Mem, *got.Stats, got.Mem)
		}
	}
}

// TestResultOutlivesReuse requires a result to hold its statistics by
// value: once its core's storage is released and reused by other runs,
// the result must read the same. A result pointing at the core's
// statistics would read the next run's.
func TestResultOutlivesReuse(t *testing.T) {
	a, _ := workloads.ByName("twolf")
	b, _ := workloads.ByName("ocean")
	resA := execute(t, Task{App: a, Preset: PresetMMTFXR, Threads: 2})
	want := *resA.Stats
	if want.Cycles == 0 || want.TotalCommitted() == 0 {
		t.Fatalf("empty statistics: %+v", want)
	}
	for _, threads := range []int{2, 4} {
		execute(t, Task{App: b, Preset: PresetMMTFXR, Threads: threads})
	}
	if *resA.Stats != want {
		t.Fatalf("a later run changed an earlier result:\nthen: %+v\nnow:  %+v", want, *resA.Stats)
	}
}

// TestMemoHeapBounded keeps 32 outcomes in a serial executor's memo and
// bounds the heap they retain: results hold values, not cores, so the
// memo grows by kilobytes per outcome, not by a core's megabytes.
func TestMemoHeapBounded(t *testing.T) {
	var tasks []Task
	for _, app := range workloads.All() {
		for _, threads := range []int{2, 4} {
			tasks = append(tasks, Task{App: app, Preset: PresetMMTFXR, Threads: threads})
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ex := NewSerial()
	for _, task := range tasks {
		if _, err := ex.Do(task); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ex.memo.Len() != 32 {
		t.Fatalf("memo holds %d outcomes, want 32", ex.memo.Len())
	}
	const bound = 16 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Errorf("heap grew by %.1f MB over 32 memoized runs, bound %d MB", float64(grew)/(1<<20), bound>>20)
	}
}

// TestExecuteAllocs bounds the allocations of a warmed Execute: with the
// storage pooled and the program shared, what is left is the system's
// contexts and memory images and the outcome itself.
func TestExecuteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop storage at random")
	}
	app, _ := workloads.ByName("water-ns")
	task := Task{App: app, Preset: PresetMMTFXR, Threads: 4}
	allocs := testing.AllocsPerRun(8, func() {
		if _, err := task.Execute(); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 40
	if allocs > bound {
		t.Errorf("a warmed Execute allocates %.0f objects, bound %d", allocs, bound)
	}
}

// TestConcurrentReuse runs one application on two goroutines at once: they
// share its assembled program and the storage pools, and every outcome
// must equal the serial run's. go test -race checks the sharing.
func TestConcurrentReuse(t *testing.T) {
	app, _ := workloads.ByName("equake")
	var tasks []Task
	for _, p := range []Preset{PresetBase, PresetMMTFXR, PresetLimit} {
		tasks = append(tasks, Task{App: app, Preset: p, Threads: 2})
	}
	want := make([]*Result, len(tasks))
	for i, task := range tasks {
		want[i] = execute(t, task)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(tasks))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range tasks {
				i := (k + g) % len(tasks) // the goroutines run different points at once
				out, err := tasks[i].Execute()
				if err != nil {
					errs <- err
					continue
				}
				if !reflect.DeepEqual(out.Result, want[i]) {
					errs <- fmt.Errorf("goroutine %d: %s differs from the serial run", g, tasks[i].Name())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
