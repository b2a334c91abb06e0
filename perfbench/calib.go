package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// Host-speed calibration. The machines this benchmark runs on are
// shared, and their speed drifts by tens of percent over minutes; the
// drift moves every rate and CPU cost of a run together (set-up time
// too). So every measured sample is bracketed by runs of a fixed
// reference computation — this binary with -calibrate, in a child
// process like the programs under test — and times, rates and CPU
// costs are reported scaled to a reference host (calibRefWall,
// calibRefCPU): a sample taken while the reference ran k times slower
// than there counts k times faster. The unscaled values stay in the
// result file.

// calibRefWall and calibRefCPU define the reference host: the
// reference computation's wall and CPU time on a quiet 2-CPU Xeon
// virtual machine, where scaled and unscaled values agree.
const (
	calibRefWall = 90 * time.Millisecond
	calibRefCPU  = 160 * time.Millisecond
)

// calibrateWork is the reference computation: random read-modify-write
// over a 16 MiB table in each of two goroutines — memory-bound like the
// programs' hash-index work, and using both CPUs like their parallel
// stages. The sequence is fixed, so the work never changes.
func calibrateWork() {
	var wg sync.WaitGroup
	for g := uint64(1); g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := make([]uint64, 1<<21)
			x := 88172645463325252 * g
			for i := 0; i < 3_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				table[(x*0x9E3779B97F4A7C15)>>43] += x
			}
			if table[x>>43] == 42 {
				fmt.Fprintln(os.Stderr, "unlikely")
			}
		}()
	}
	wg.Wait()
}

// calibrate runs the reference computation in a child process and
// returns its wall and CPU (user + sys) times in seconds.
func (e *benchEnv) calibrate() (wall, cpu float64, err error) {
	cmd := e.command(context.Background(), os.Args[0], "-calibrate")
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("calibration: %w", err)
	}
	ps := cmd.ProcessState
	return time.Since(start).Seconds(), (ps.UserTime() + ps.SystemTime()).Seconds(), nil
}

// calibrated brackets samples with calibration runs. For sample i,
// kWall[i] and kCPU[i] are how many times slower than on the reference
// host the reference computation ran around it — the mean of the runs
// before and after — in wall and in CPU time. Rates and wall times are
// scaled by kWall, CPU costs by kCPU: time the host takes the CPU away
// slows the wall clock of both the reference and the programs but not
// their CPU times.
type calibrated struct {
	e           *benchEnv
	wall, cpu   []float64 // reference times: one before each sample, one after the last
	kWall, kCPU []float64
}

func (c *calibrated) start() error {
	w, u, err := c.e.calibrate()
	c.wall, c.cpu = append(c.wall, w), append(c.cpu, u)
	return err
}

// add closes the sample taken since the last calibration.
func (c *calibrated) add() error {
	w, u, err := c.e.calibrate()
	if err != nil {
		return err
	}
	c.record(w, u)
	return nil
}

// record closes the sample with the calibration (wall w, CPU u) after
// it.
func (c *calibrated) record(w, u float64) {
	c.kWall = append(c.kWall, (c.wall[len(c.wall)-1]+w)/2/calibRefWall.Seconds())
	c.kCPU = append(c.kCPU, (c.cpu[len(c.cpu)-1]+u)/2/calibRefCPU.Seconds())
	c.wall, c.cpu = append(c.wall, w), append(c.cpu, u)
}
