// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment prints the same rows or series the
// paper reports; cmd/bench is the CLI front end and bench_test.go wires
// them into `go test -bench`.
//
// Experiments that depend on core counts beyond this machine run on the
// calibrated discrete-event simulator (internal/sim); everything else
// runs the real engine, scaled by Opt.Quick when the full 64×16
// configuration would take minutes on a small host.
package experiments

import (
	"io"
	"runtime"
	"sort"

	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/queue"
	"repro/internal/sim"
)

// Opt controls experiment scale.
type Opt struct {
	// Quick shrinks problem sizes and sample counts so the full suite
	// finishes in minutes on a laptop; the shapes are preserved.
	Quick bool
	// Workers used for real-engine runs (0 = NumCPU*2).
	Workers int
	// Frames per measurement point (0 = experiment default).
	Frames int
	// Seed for workload generation.
	Seed int64
}

func (o Opt) withDefaults() Opt {
	if o.Workers <= 0 {
		// One worker per physical core: oversubscribed busy-polling
		// workers turn host scheduling into the dominant noise source.
		o.Workers = runtime.NumCPU()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Opt) frames(quickDefault, fullDefault int) int {
	if o.Frames > 0 {
		return o.Frames
	}
	if o.Quick {
		return quickDefault
	}
	return fullDefault
}

// Func is one experiment.
type Func func(w io.Writer, o Opt) error

// All maps experiment ids (table/figure numbers) to implementations.
var All = map[string]Func{
	"table1": Table1,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"table3": Table3,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12a": Fig12a,
	"fig12b": Fig12b,
	"fig13":  Fig13,
	"table4": Table4,
	"table5": Table5,
	// Beyond the paper's evaluation: fronthaul loss tolerance (DESIGN §15)
	// and multi-cell fleet scaling (DESIGN §16).
	"fecloss":    FECLoss,
	"fleetscale": FleetScale,
}

// Names returns experiment ids in a stable order.
func Names() []string {
	out := make([]string, 0, len(All))
	for k := range All {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// scaledCfg is the reduced real-engine configuration used in Quick mode:
// same structure as the paper's (pilot + data symbols, ZF groups of 16,
// 64-QAM available), sized so a 2-core host processes a frame in
// milliseconds.
func scaledCfg(m, k int) frame.Config {
	return frame.Config{
		Antennas:        m,
		Users:           k,
		OFDMSize:        512,
		DataSubcarriers: 304,
		Order:           modulation.QAM16,
		Rate:            ldpc.Rate23,
		DecodeIter:      5,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         frame.UplinkSchedule(1, 6),
		ZFGroupSize:     16,
		DemodBlockSize:  64,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

// fullCfg is the paper's 64×16 configuration.
func fullCfg() frame.Config { return frame.Default64x16() }

// blockName maps task types to the paper's block names.
func blockName(t queue.TaskType) string {
	switch t {
	case queue.TaskPilotFFT:
		return "FFT+CSI"
	case queue.TaskZF:
		return "ZF"
	case queue.TaskFFT:
		return "FFT"
	case queue.TaskDemod:
		return "Demod"
	case queue.TaskDecode:
		return "Decode"
	case queue.TaskEncode:
		return "Encode"
	case queue.TaskPrecode:
		return "Precode"
	case queue.TaskIFFT:
		return "IFFT"
	}
	return t.String()
}

// minWorkersKeepingUp searches for the fewest simulated workers that
// sustain the frame rate, mirroring the paper's per-frame-length core
// counts in Fig. 6.
func minWorkersKeepingUp(base sim.Config, lo, hi int) (int, *sim.Result, error) {
	for w := lo; w <= hi; w++ {
		c := base
		c.Workers = w
		r, err := sim.Run(c)
		if err != nil {
			return 0, nil, err
		}
		if r.KeepsUp {
			return w, r, nil
		}
	}
	c := base
	c.Workers = hi
	r, err := sim.Run(c)
	return hi, r, err
}

// simBase returns the canonical 1 ms 64×16 uplink simulation config used
// by several experiments and tests.
func simBase() sim.Config {
	return sim.Config{Frames: 8}
}

// paperCell is the paper's 1 ms 64×16 uplink cell (frame.Default64x16)
// with m antennas and k users.
func paperCell(m, k int) frame.Config {
	c := frame.Default64x16()
	c.Antennas, c.Users = m, k
	return c
}
