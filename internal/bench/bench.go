// Package bench provides the paper's four benchmark programs — Matrix,
// FFT, LUD, and Model (Section 4) — as generators of source code in the
// compiler's input language, together with exact reference results
// computed in Go for verifying simulated runs. A fifth program, ModelQ,
// is the modified Model benchmark of the interference experiment
// (Table 3).
//
// Each benchmark is generated in up to three source variants matching the
// paper's machine modes: a sequential variant (used for SEQ and STS), a
// threaded variant (TPE and Coupled), and — where statically schedulable —
// a fully unrolled Ideal variant.
package bench

import (
	"fmt"
	"strconv"
	"strings"

	"pcoup/internal/isa"
)

// SourceKind selects a benchmark's source variant.
type SourceKind int

const (
	// Sequential is the single-threaded program (SEQ and STS modes).
	Sequential SourceKind = iota
	// Threaded is the explicitly parallel program (TPE and Coupled).
	Threaded
	// Ideal is the fully unrolled, statically schedulable program.
	Ideal
)

func (k SourceKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Threaded:
		return "threaded"
	case Ideal:
		return "ideal"
	}
	return fmt.Sprintf("SourceKind(%d)", int(k))
}

// Peek reads one word of the simulated memory image by global name and
// element offset.
type Peek func(global string, off int64) (isa.Value, bool)

// Benchmark is one generated program plus its result checker.
type Benchmark struct {
	Name   string
	Kind   SourceKind
	Source string
	// Verify checks the final memory image against the Go reference
	// computation (bit-exact: the generated program evaluates in the
	// same operation order as the reference).
	Verify func(peek Peek) error
}

// Names lists the benchmark suite in the paper's order.
func Names() []string { return []string{"matrix", "fft", "model", "lud"} }

// HasIdeal reports whether the named benchmark has an Ideal variant (LUD
// and Model have data-dependent control flow and do not, as in the
// paper).
func HasIdeal(name string) bool { return name == "matrix" || name == "fft" }

// generators maps each name Get accepts to its paper-size generator.
var generators = map[string]func(SourceKind) (*Benchmark, error){
	"matrix": GenMatrix,
	"fft":    GenFFT,
	"lud":    GenLUD,
	"model":  GenModel,
	"modelq": GenModelQ,
}

// Get generates the named benchmark in the requested variant at the
// paper's problem size.
func Get(name string, kind SourceKind) (*Benchmark, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return generators[name](kind)
}

// CheckName reports, with Get's error for an unknown name, whether Get
// knows the named benchmark — without generating its source.
func CheckName(name string) error {
	if _, ok := generators[name]; !ok {
		return fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return nil
}

// GetN generates the named benchmark at a chosen problem size. The size
// parameter means: matrix — N (NxN multiply); fft — transform points
// (power of two); lud — mesh side m (an m^2 x m^2 system); model —
// device count. ModelQ is fixed (it reproduces Table 3 exactly).
func GetN(name string, kind SourceKind, size int) (*Benchmark, error) {
	switch name {
	case "matrix":
		return GenMatrixN(size, kind)
	case "fft":
		return GenFFTN(size, kind)
	case "lud":
		return GenLUDMesh(size, kind)
	case "model":
		return GenModelN(size, modelNodes, kind)
	}
	return nil, fmt.Errorf("bench: unknown sized benchmark %q", name)
}

// --- source generation helpers ---

// fstr renders a float64 so the source reader recovers it exactly.
func fstr(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// floatInit renders an (init ...) clause for a float array.
func floatInit(vals []float64) string {
	var b strings.Builder
	b.WriteString("(init")
	for i, v := range vals {
		if i%8 == 0 {
			b.WriteString("\n    ")
		} else {
			b.WriteByte(' ')
		}
		b.WriteString(fstr(v))
	}
	b.WriteByte(')')
	return b.String()
}

// intInit renders an (init ...) clause for an int array.
func intInit(vals []int64) string {
	var b strings.Builder
	b.WriteString("(init")
	for i, v := range vals {
		if i%16 == 0 {
			b.WriteString("\n    ")
		} else {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// expectFloat compares one float result.
func expectFloat(peek Peek, global string, off int64, want float64) error {
	v, ok := peek(global, off)
	if !ok {
		return fmt.Errorf("bench: global %q offset %d not found", global, off)
	}
	if v.AsFloat() != want {
		return fmt.Errorf("bench: %s[%d] = %v, want %v", global, off, v.AsFloat(), want)
	}
	return nil
}

// expectInt compares one int result.
func expectInt(peek Peek, global string, off int64, want int64) error {
	v, ok := peek(global, off)
	if !ok {
		return fmt.Errorf("bench: global %q offset %d not found", global, off)
	}
	if v.AsInt() != want {
		return fmt.Errorf("bench: %s[%d] = %d, want %d", global, off, v.AsInt(), want)
	}
	return nil
}
