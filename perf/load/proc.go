package load

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat. It
// is 100 on every Linux configuration Go supports.
const clockTick = 100

// ProcCPU returns the user+system CPU time a process has consumed, read
// from /proc/<pid>/stat. ok is false where /proc is not available (non-Linux
// hosts): the caller reports the metric as unavailable, never as zero.
func ProcCPU(pid int) (cpu time.Duration, ok bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// The command name is parenthesised and may contain spaces; the numeric
	// fields follow the last ')'. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, false
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return time.Duration(ut+st) * time.Second / clockTick, true
}

// ProcPeakRSS returns a process's resident-set high-water mark (VmHWM) in
// bytes.
func ProcPeakRSS(pid int) (bytes int64, ok bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			f := strings.Fields(rest)
			if len(f) < 1 {
				return 0, false
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, false
			}
			return kb << 10, true
		}
	}
	return 0, false
}
