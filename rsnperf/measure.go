package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memSample is a reading of the runtime's cumulative allocation and
// GC counters.
type memSample struct {
	allocBytes, allocs, gcCycles uint64
}

var memMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memMetricNames))
	for i, name := range memMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return memSample{allocBytes: s[0].Value.Uint64(), allocs: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64()}
}

func (m memSample) sub(o memSample) memSample {
	return memSample{m.allocBytes - o.allocBytes, m.allocs - o.allocs, m.gcCycles - o.gcCycles}
}

func (m memSample) add(o memSample) memSample {
	return memSample{m.allocBytes + o.allocBytes, m.allocs + o.allocs, m.gcCycles + o.gcCycles}
}
