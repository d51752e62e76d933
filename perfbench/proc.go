package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports without cgo's sysconf).
const clockTicks = 100

// procCPUSeconds returns pid's user+system CPU time from
// /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("perfbench: reading cpu time: %w", err)
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, with state as field 3.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("perfbench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("perfbench: short /proc/%d/stat", pid)
	}
	// utime and stime are fields 14 and 15, i.e. f[11] and f[12].
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("perfbench: malformed cpu times in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// selfCPUSeconds is this process's CPU time at full resolution.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusMB returns a memory field of /proc/<pid>/status ("VmHWM",
// "VmRSS") in MiB.
func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("perfbench: reading memory: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fs := strings.Fields(line[len(field)+1:])
		if len(fs) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fs[0], 64)
		if err != nil {
			break
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("perfbench: no %s in /proc/%d/status", field, pid)
}

// hostStealSeconds returns the CPU time the hypervisor gave to other
// guests while this guest's CPUs wanted to run (the steal column of
// /proc/stat), summed over CPUs; 0 where the kernel does not report it.
func hostStealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	steal, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(steal) / clockTicks
}
