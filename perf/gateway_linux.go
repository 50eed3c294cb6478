package perf

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill the gateway process if the benchmark
// process ends without stopping it (a timeout kill, a panic), so no run can
// leave a gateway behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
