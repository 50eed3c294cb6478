//go:build !linux

package perf

import "os/exec"

// dieWithParent has no portable equivalent; Stop and the signal handler in
// cmd/hqbench cover the ordinary exits.
func dieWithParent(cmd *exec.Cmd) {}
