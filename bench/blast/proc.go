package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// usage is the process's cumulative CPU time (user+sys, every thread) and
// context switches (voluntary + involuntary), as getrusage reports them.
type usage struct {
	cpu   time.Duration
	ctxsw int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), ctxsw: ru.Nvcsw + ru.Nivcsw}
}

func (u usage) sub(o usage) usage { return usage{cpu: u.cpu - o.cpu, ctxsw: u.ctxsw - o.ctxsw} }

// peakRSSMB reads VmHWM. getrusage's ru_maxrss will not do: across exec it
// keeps the high-water mark of the address space the child was forked from,
// so a child of `go run` would report the go tool's peak.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
