// Command nas runs one NAS proxy kernel (or the full Table 1 suite) under
// the standard LMT configurations.
//
// Usage:
//
//	nas -kernel is.B.8          # one kernel, all four LMTs
//	nas -kernel all             # the full Table 1
//	nas -kernel ft.B.8 -scale 10  # reduced iteration count
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"knemesis/internal/experiments"
	"knemesis/internal/nas"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h has printed the usage
		fmt.Fprintln(os.Stderr, "nas:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, runs the selected
// kernels through the Table 1 pipeline and renders the table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nas", flag.ContinueOnError)
	var (
		kernelName = fs.String("kernel", "all", "kernel name (e.g. is.B.8) or 'all'")
		machine    = fs.String("machine", "e5345", strings.Join(experiments.MachineNames(), "|"))
		scale      = fs.Int("scale", 1, "divide iteration counts by this factor")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := experiments.MachineByName(*machine)
	if err != nil {
		return err
	}

	var kernels []nas.Kernel
	if *kernelName == "all" {
		kernels = nas.Kernels()
	} else {
		k, ok := nas.KernelByName(*kernelName)
		if !ok {
			return fmt.Errorf("unknown kernel %q (try is.B.8, ft.B.8, ...)", *kernelName)
		}
		kernels = []nas.Kernel{k}
	}
	if *scale > 1 {
		for i := range kernels {
			kernels[i] = kernels[i].Scaled(*scale)
		}
	}

	tab, _, err := experiments.Table1(m, kernels)
	if err != nil {
		return err
	}
	experiments.RenderTable(stdout, tab)
	return nil
}
