package codegen

import (
	"fmt"

	"github.com/nofreelunch/gadget-planner/internal/emu"
	"github.com/nofreelunch/gadget-planner/internal/isa"
	"github.com/nofreelunch/gadget-planner/internal/minic"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// BuildProgram compiles MiniC source (with the runtime prelude prepended)
// into an executable binary. The optional transform hook runs between
// lowering and code generation — it is where obfuscation passes plug in.
func BuildProgram(src string, transform func(*mir.Module) error, opts Options) (*sbf.Binary, error) {
	prog, err := minic.Parse(RuntimePrelude + "\n" + src)
	if err != nil {
		return nil, err
	}
	mod, err := mir.Lower(prog)
	if err != nil {
		return nil, err
	}
	if transform != nil {
		if err := transform(mod); err != nil {
			return nil, fmt.Errorf("codegen: transform: %w", err)
		}
	}
	return Compile(mod, opts)
}

// RunResult is the outcome of executing a binary in the emulator.
type RunResult struct {
	Stdout   string
	ExitCode uint64
	Steps    uint64
}

// DefaultMaxSteps is Run's step cap when the caller passes 0.
const DefaultMaxSteps = 120_000_000

// Run executes a compiled binary in the emulator until exit.
func Run(bin *sbf.Binary, stdin []byte, maxSteps uint64) (*RunResult, error) {
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	be, ok := isa.ByName(bin.ISA)
	if !ok {
		return nil, fmt.Errorf("codegen: run: unknown ISA %q", bin.ISA)
	}
	m := emu.NewMachineISA(be)
	os := emu.NewOS()
	os.Stdin.Reset(stdin)
	m.OS = os
	m.Mem.LoadBinary(bin)
	// Virtualized/obfuscated frames can be tens of KB; give deep recursion
	// room.
	m.SetupStack(0x7FC0_0000, 0x400000)
	m.RIP = bin.Entry
	if err := m.Run(maxSteps); err != nil {
		return nil, fmt.Errorf("codegen: run: %w (after %d steps, rip=%#x)", err, m.Steps, m.RIP)
	}
	return &RunResult{Stdout: os.Stdout.String(), ExitCode: os.ExitCode, Steps: m.Steps}, nil
}
