// Package sim is a discrete-event simulator of Agora's scheduling: it
// drives the engine's own frame DAG (internal/sched: the same release
// rules, admission gate and poll orders internal/core runs) over any
// number of virtual workers under either the data-parallel or the
// pipeline-parallel policy, using a per-task cost model calibrated from
// the paper's Table 3 or from measurements on this machine.
//
// The simulator exists because the paper's scalability results need a
// 26–64 core server; the evaluation machine for this reproduction has two
// cores. Virtual time lets us reproduce the *scheduling* phenomena — the
// data-vs-pipeline latency gap (Fig. 6, 13), core scaling (Fig. 8), and
// the growth of data-movement and synchronization overhead with antennas
// and cores (Fig. 10, 11) — with costs that are measured, not invented.
package sim

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/queue"
	"repro/internal/sched"
)

// Config describes one simulated run.
type Config struct {
	// Frame is the cell the engine would run: geometry, symbol schedule
	// and task granularity (ZFGroupSize, DemodBlockSize, FFTBatch,
	// ZFBatch). The zero value means frame.Default64x16, the paper's
	// 1 ms 64×16 uplink frame. Symbols last frame.SymbolDuration.
	Frame frame.Config

	Workers int
	Mode    Mode

	Frames int

	Cost CostModel
}

// Mode aliases the scheduler's modes so callers use one set of constants
// for both the real engine and the simulator.
type Mode = sched.Mode

// Scheduling modes.
const (
	DataParallel     = sched.DataParallel
	PipelineParallel = sched.PipelineParallel
)

// CostModel gives per-task compute and data-movement costs in µs, plus
// per-message synchronization cost. Costs scale with problem size through
// the closures so antenna/user sweeps reproduce Fig. 10/11 trends.
type CostModel struct {
	// FFTUS is the per-antenna FFT(+CSI) cost.
	FFTUS float64
	// ZFUS is the per-group zero-forcing cost at the reference size
	// (64×16); actual cost scales as M·K².
	ZFUS float64
	// DemodPerSCUS is the per-subcarrier equalize+demod cost at 64×16;
	// scales as M·K.
	DemodPerSCUS float64
	// DecodeUS is the per-user per-symbol LDPC decode cost.
	DecodeUS float64
	// EncodeUS, PrecodePerSCUS, IFFTUS are the downlink analogues.
	EncodeUS, PrecodePerSCUS, IFFTUS float64

	// MoveFFTUS / MoveDemodPerSCUS are per-task data-movement costs at
	// the reference size; they scale linearly with M and mildly with the
	// worker count (cache-coherence pressure).
	MoveFFTUS        float64
	MoveDemodPerSCUS float64

	// SyncPerMsgUS is the manager–worker synchronization cost per queue
	// message; it grows with worker count in Grow fashion.
	SyncPerMsgUS float64

	// CoherencePerWorker adds fractional movement/sync cost per extra
	// worker: cost *= 1 + CoherencePerWorker*(workers-1).
	CoherencePerWorker float64
}

// PaperCosts returns the model calibrated from Table 3 of the paper
// (64×16 MIMO, 1200 subcarriers, 1/3-rate LDPC with 5 iterations) plus
// the data-movement/sync magnitudes of §6.2.2–6.2.3.
func PaperCosts() CostModel {
	return CostModel{
		FFTUS:        2.7,
		ZFUS:         21.1,
		DemodPerSCUS: 0.19,
		DecodeUS:     46.5,
		EncodeUS:     12.0,
		// Precoding multiplies an M×K matrix per subcarrier: comparable
		// to demod per subcarrier.
		PrecodePerSCUS: 0.21,
		IFFTUS:         2.7,
		// Fig. 10: at 26 cores FFT movement ≈ 2.0 ms over 896 tasks
		// (≈2.2 µs/task) and demod ≈ 2.6 ms over 15600 (≈0.17 µs/SC).
		MoveFFTUS:          2.2,
		MoveDemodPerSCUS:   0.17,
		SyncPerMsgUS:       0.6,
		CoherencePerWorker: 0.012,
	}
}

// reference size used by the scaling laws.
const refM, refK = 64.0, 16.0

// taskCosts are the scaled costs of one unit of each task type: a
// subcarrier for demod and precode, one task otherwise.
type taskCosts struct {
	compute, move [queue.NumTaskTypes]float64
	perMsg        float64
}

func (c *Config) costs() taskCosts {
	m := float64(c.Frame.Antennas)
	k := float64(c.Frame.Users)
	cm := c.Cost
	cohere := 1 + cm.CoherencePerWorker*float64(c.Workers-1)
	mScale := m / refM
	var tc taskCosts
	tc.compute[queue.TaskPilotFFT] = cm.FFTUS
	tc.compute[queue.TaskFFT] = cm.FFTUS
	tc.compute[queue.TaskZF] = cm.ZFUS * (m * k * k) / (refM * refK * refK)
	tc.compute[queue.TaskDemod] = cm.DemodPerSCUS * (m * k) / (refM * refK)
	tc.compute[queue.TaskDecode] = cm.DecodeUS
	tc.compute[queue.TaskEncode] = cm.EncodeUS
	tc.compute[queue.TaskPrecode] = cm.PrecodePerSCUS * (m * k) / (refM * refK)
	tc.compute[queue.TaskIFFT] = cm.IFFTUS
	tc.move[queue.TaskPilotFFT] = cm.MoveFFTUS * cohere
	tc.move[queue.TaskFFT] = cm.MoveFFTUS * cohere
	tc.move[queue.TaskZF] = 0.05 * cohere
	tc.move[queue.TaskDemod] = cm.MoveDemodPerSCUS * mScale * cohere
	tc.move[queue.TaskDecode] = 0.3 * cohere
	tc.move[queue.TaskEncode] = 0.2 * cohere
	tc.move[queue.TaskPrecode] = cm.MoveDemodPerSCUS * mScale * cohere
	tc.move[queue.TaskIFFT] = cm.MoveFFTUS * cohere
	tc.perMsg = cm.SyncPerMsgUS * cohere
	return tc
}

// withDefaults fills unset fields from the paper's configuration.
func (c Config) withDefaults() Config {
	if c.Frame.Antennas == 0 {
		c.Frame = frame.Default64x16()
	}
	if c.Workers == 0 {
		c.Workers = 26
	}
	if c.Frames == 0 {
		c.Frames = 20
	}
	if c.Cost == (CostModel{}) {
		c.Cost = PaperCosts()
	}
	return c
}

// Result reports one simulated run.
type Result struct {
	// FrameLatencyUS is per-frame latency: decode-complete (or TX
	// complete for downlink-only) minus the frame's start.
	FrameLatencyUS []float64
	// Milestones of the LAST steady-state frame, µs from frame start;
	// QueueDelayUS is its admission wait after its first packets landed.
	QueueDelayUS, PilotDoneUS, ZFDoneUS, DecodeDoneUS float64
	// Per-block wall-clock work split, cumulative across workers, ms.
	ComputeMS, MoveMS, SyncMS float64
	// Per-block compute totals (ms) for Fig. 13a-style breakdowns.
	BlockComputeMS map[queue.TaskType]float64
	BlockMoveMS    map[queue.TaskType]float64
	// BlockSpanUS is the last frame's wall-clock span of each block:
	// first task dispatched to last task completed (Fig. 13a).
	BlockSpanUS map[queue.TaskType]float64
	// Tasks counts the tasks run per type over all frames, the quantity
	// a core.Engine's metric snapshot reports as Tasks[type].Count.
	Tasks [queue.NumTaskTypes]int
	// Throughput check: true when the steady-state inter-completion gap
	// stays within the frame duration (no backlog growth).
	KeepsUp bool
}

// MedianLatencyUS returns the median frame latency.
func (r *Result) MedianLatencyUS() float64 {
	if len(r.FrameLatencyUS) == 0 {
		return 0
	}
	s := append([]float64(nil), r.FrameLatencyUS...)
	insertionSort(s)
	return s[len(s)/2]
}

// MaxLatencyUS returns the worst frame latency.
func (r *Result) MaxLatencyUS() float64 {
	var m float64
	for _, v := range r.FrameLatencyUS {
		if v > m {
			m = v
		}
	}
	return m
}

func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// event is a simulator event: the packets of one symbol landing
// (worker < 0) or a worker finishing a task message.
type event struct {
	at         float64
	frame, sym int
	worker     int
	msg        queue.Msg
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Run executes the simulation.
func Run(c Config) (*Result, error) {
	c = c.withDefaults()
	if c.Frames < 1 {
		return nil, fmt.Errorf("sim: bad config: %d frames", c.Frames)
	}
	if err := c.Frame.Validate(); err != nil {
		return nil, err
	}
	d, err := sched.New(&c.Frame, sched.Params{Mode: c.Mode, Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	return newSimState(c, d).run(), nil
}
