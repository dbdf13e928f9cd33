//dsm:wallclock the calibrator paces its bursts and stamps its samples by the wall clock

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// The calibrator. This shared host runs at two speeds, switching every few
// milliseconds: full speed, and about 30 % slower while a neighbour keeps the
// core's other hardware thread busy. The share of slow time drifts between a
// tenth and nine tenths over minutes, and every timing of a run moves with it:
// two runs of the same code differ by a quarter, more than any bound the gate
// allows. No statistic within a run removes that, so the driver measures it:
// while the measured launch runs, a calibrator process repeats a fixed burst
// of work ten times a second and records the CPU time each burst cost. The
// mean cost over the timed region, over the burst's cost on the undisturbed
// reference host, is the run's host factor; the end-to-end timings are
// reported divided by it (rates multiplied), as the undisturbed reference host
// would read them. The burst is goroutine hand-offs over channels on one P,
// the work the live engine's hot path does most, and slows down by about as
// much as the workloads do.

const (
	calibPeriod = 100 * time.Millisecond
	calibWarm   = 500  // untimed round trips opening a burst: caches and the core's clock settle
	calibTrips  = 4000 // timed round trips
	// calibNominalNs is a burst's CPU time on the reference host (2-vCPU
	// 2.1 GHz Xeon VM, go1.24) at full speed: what the faster half of the
	// bursts of a quiet spell cost, 450 ns a round trip.
	calibNominalNs = 1.80e6
)

// calibSample is one burst: when it ended (Unix nanoseconds) and the CPU
// time it cost.
type calibSample struct {
	At    int64
	CPUNs int64
}

// processCPU is the CPU time, user plus system, this process has used.
func processCPU() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// calibMain is the calibrator child: it samples until its standard input
// closes, then prints its samples and exits.
func calibMain() int {
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	trips := func(n int) {
		for i := 0; i < n; i++ {
			ping <- i
			<-pong
		}
	}
	var samples []calibSample
	tick := time.NewTicker(calibPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if err := json.NewEncoder(os.Stdout).Encode(samples); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark calibrator:", err)
				return 2
			}
			return 0
		case <-tick.C:
		}
		trips(calibWarm)
		before := processCPU()
		trips(calibTrips)
		cost := processCPU() - before
		samples = append(samples, calibSample{At: time.Now().UnixNano(), CPUNs: cost})
	}
}

// calibrator is the driver's handle on a running calibrator child.
type calibrator struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	stdout bytes.Buffer
	cancel context.CancelFunc
}

// startCalibrator starts the calibrator child. Like every child it exits
// when the driver's end of its standard input closes, and the deadline
// kills it.
func startCalibrator(deadline time.Duration) (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	c := &calibrator{cmd: exec.CommandContext(ctx, exe, "child", `{"Engine":"calib"}`), cancel: cancel}
	c.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", inProcessProcs))
	c.cmd.Stdout, c.cmd.Stderr = &c.stdout, os.Stderr
	c.cmd.WaitDelay = 2 * time.Second
	if c.stdin, err = c.cmd.StdinPipe(); err == nil {
		err = c.cmd.Start()
	}
	if err != nil {
		cancel()
		return nil, fmt.Errorf("starting the calibrator: %w", err)
	}
	return c, nil
}

// stop ends the calibrator and returns its samples.
func (c *calibrator) stop() ([]calibSample, error) {
	defer c.cancel()
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	var samples []calibSample
	if err := json.Unmarshal(c.stdout.Bytes(), &samples); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	return samples, nil
}

// hostFactor is the mean cost of the bursts that ended in [from, to] (Unix
// nanoseconds) over the nominal cost: how much slower than the undisturbed
// reference host this host ran meanwhile. A region too short to hold a
// burst takes the whole launch's; without any sample the factor is 1.
func hostFactor(samples []calibSample, from, to int64) float64 {
	var sum, all float64
	var n int
	for _, s := range samples {
		all += float64(s.CPUNs)
		if s.At >= from && s.At <= to {
			sum += float64(s.CPUNs)
			n++
		}
	}
	switch {
	case n > 0:
		return sum / float64(n) / calibNominalNs
	case len(samples) > 0:
		return all / float64(len(samples)) / calibNominalNs
	}
	return 1
}
