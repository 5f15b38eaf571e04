package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// runArgs calls run with args as the command line on a fresh flag set.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"hattc"}, args...)
	flag.CommandLine = flag.NewFlagSet("hattc", flag.ContinueOnError)
	return run()
}

// TestRunRejectsOversizedTrotter: a -trotter count whose circuit cannot
// be allocated is an error from run, routed or not, never a panic.
func TestRunRejectsOversizedTrotter(t *testing.T) {
	for _, extra := range [][]string{nil, {"-device", "montreal"}} {
		args := append([]string{"-model", "h2", "-trotter", "10000000000000"}, extra...)
		err := runArgs(t, args...)
		if err == nil || !strings.Contains(err.Error(), "MaxTrotterGates") {
			t.Errorf("hattc %s: err = %v, want the gate-cap error", strings.Join(args, " "), err)
		}
	}
}
