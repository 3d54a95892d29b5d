package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/ldpc"
)

// Decode-iteration tripwire (-iters): the convergence-speed counterpart
// of the -compare wall-clock gate. The layered schedule's whole point is
// fewer iterations to converge, and a scheduling or kernel bug can
// silently cost iterations while staying correct and within the noisy
// ±10% wall-clock tolerance. The workload here is fully deterministic —
// fixed seed, fixed code, no timing — so the measured means are exactly
// reproducible and the gate only fires when code behaviour changes.

// ItersBaseline is the committed reference, stored inside
// BENCH_BASELINE.json (written by -baseline alongside the benchmark
// medians).
type ItersBaseline struct {
	Blocks            int     `json:"blocks"`
	LayeredMeanIters  float64 `json:"layered_mean_iters"`
	FloodingMeanIters float64 `json:"flooding_mean_iters"`
}

// measureDecodeIters runs the reference decode workload — the 64×16
// default code (rate 1/3, Z=104) at the Decode_Layered/_Flooding
// benchmarks' reference noise level (±4 LLRs, σ=2.5 Gaussian) — and
// returns the mean iterations-to-converge under each schedule. Every
// block must converge under every path: the workload is chosen inside
// the code's correction capability, so a non-converging block is itself
// a regression.
func measureDecodeIters() (ItersBaseline, error) {
	const (
		blocks  = 32
		maxIter = 20
		sigma   = 2.5
	)
	rng := rand.New(rand.NewSource(1))
	code := ldpc.MustNew(ldpc.Rate13, 104)
	lay := ldpc.NewDecoder(code)
	flood := ldpc.NewDecoder(code)
	flood.Flooding = true
	out := make([]byte, code.K())
	var layIters, floodIters int
	for blk := 0; blk < blocks; blk++ {
		info := make([]byte, code.K())
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		cw := make([]byte, code.N())
		code.Encode(cw, info)
		llr := make([]float32, code.N())
		for i, bit := range cw {
			if bit == 0 {
				llr[i] = 4
			} else {
				llr[i] = -4
			}
			llr[i] += float32(sigma * rng.NormFloat64())
		}
		rl := lay.Decode(out, llr, maxIter)
		rf := flood.Decode(out, llr, maxIter)
		if !rl.OK || !rf.OK {
			return ItersBaseline{}, fmt.Errorf(
				"block %d did not converge (layered=%v flooding=%v)",
				blk, rl.OK, rf.OK)
		}
		layIters += rl.Iterations
		floodIters += rf.Iterations
	}
	return ItersBaseline{
		Blocks:            blocks,
		LayeredMeanIters:  float64(layIters) / blocks,
		FloodingMeanIters: float64(floodIters) / blocks,
	}, nil
}

// runIters implements the -iters mode: measure the deterministic
// workload and fail if the layered schedule's mean iterations-to-converge
// regressed more than tol past the committed baseline.
// The flooding mean is reported for context but not gated — it is the
// ablation, not the product path.
func runIters(baselinePath string, tol float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if base.DecodeIters == nil {
		return fmt.Errorf("%s has no decode_iters section; re-snapshot with -baseline", baselinePath)
	}
	cur, err := measureDecodeIters()
	if err != nil {
		return err
	}
	ref := *base.DecodeIters
	fmt.Printf("decode iterations-to-converge (%d blocks, reference workload)\n", cur.Blocks)
	fmt.Printf("%-16s %10s %10s\n", "schedule", "baseline", "current")
	fmt.Printf("%-16s %10.3f %10.3f\n", "layered", ref.LayeredMeanIters, cur.LayeredMeanIters)
	fmt.Printf("%-16s %10.3f %10.3f\n", "flooding", ref.FloodingMeanIters, cur.FloodingMeanIters)
	if cur.LayeredMeanIters > 0 {
		fmt.Printf("layered advantage: %.2fx fewer iterations than flooding\n",
			cur.FloodingMeanIters/cur.LayeredMeanIters)
	}
	if ref.LayeredMeanIters > 0 && cur.LayeredMeanIters > ref.LayeredMeanIters*(1+tol) {
		fmt.Printf("FAIL layered: mean iterations %.3f exceeds baseline %.3f by more than %.0f%%\n",
			cur.LayeredMeanIters, ref.LayeredMeanIters, tol*100)
		return fmt.Errorf("iterations-to-converge regression")
	}
	fmt.Println("iters: OK")
	return nil
}
