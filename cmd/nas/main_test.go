package main

import (
	"io"
	"strings"
	"testing"
)

// One scaled kernel runs end to end through the Table 1 pipeline and
// renders a row for it. cg.B.8 rather than is.B.8: IS runs a fixed
// 10-iteration algorithm that -scale does not shorten (~20 s on a 2-vCPU
// host).
func TestRunScaledKernel(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kernel", "cg.B.8", "-scale", "1000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cg.B.8") {
		t.Errorf("table does not mention the kernel:\n%s", out.String())
	}
}

// An unknown -machine is an error naming the registered presets, resolved
// through the experiments registry rather than a local switch.
func TestUnknownMachineIsError(t *testing.T) {
	err := run([]string{"-machine", "pentium-2"}, io.Discard)
	if err == nil {
		t.Fatal("unknown machine accepted")
	}
	if !strings.Contains(err.Error(), "pentium-2") || !strings.Contains(err.Error(), "e5345") {
		t.Errorf("error does not name the value and the presets: %v", err)
	}
}

func TestUnknownKernelIsError(t *testing.T) {
	if err := run([]string{"-kernel", "zz.Z.9"}, io.Discard); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
