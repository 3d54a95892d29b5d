package sched

import (
	"repro/internal/frame"
	"repro/internal/queue"
)

// dataParallelOrder is the static queue-polling priority (§3.3).
var dataParallelOrder = []queue.TaskType{
	queue.TaskPilotFFT, queue.TaskZF, queue.TaskFFT, queue.TaskDemod,
	queue.TaskDecode, queue.TaskEncode, queue.TaskPrecode, queue.TaskIFFT,
}

// pipelineBlockWeights approximates each block's share of total compute
// (from Table 3 for the uplink; coarse estimates for downlink blocks).
var pipelineBlockWeights = map[queue.TaskType]float64{
	queue.TaskPilotFFT: 0.06,
	queue.TaskZF:       0.10,
	queue.TaskFFT:      0.09,
	queue.TaskDemod:    0.17,
	queue.TaskDecode:   0.58,
	queue.TaskEncode:   0.10,
	queue.TaskPrecode:  0.20,
	queue.TaskIFFT:     0.15,
}

// pollOrders returns each worker's queue-poll order. Data-parallel workers
// all poll every queue in dataParallelOrder; pipeline-parallel workers
// are partitioned among the blocks in use, proportional to block weight
// and at least one worker per block.
func pollOrders(cfg *frame.Config, p Params) [][]queue.TaskType {
	polls := make([][]queue.TaskType, p.Workers)
	if p.Mode == DataParallel {
		for i := range polls {
			polls[i] = dataParallelOrder
		}
		return polls
	}
	var blocks []queue.TaskType
	if cfg.NumUplink() > 0 || cfg.NumPilots() > 0 {
		blocks = append(blocks, queue.TaskPilotFFT, queue.TaskZF)
	}
	if cfg.NumUplink() > 0 {
		blocks = append(blocks, queue.TaskFFT, queue.TaskDemod, queue.TaskDecode)
	}
	if cfg.NumDownlink() > 0 {
		blocks = append(blocks, queue.TaskEncode, queue.TaskPrecode, queue.TaskIFFT)
	}
	alloc := p.PipelineAlloc
	if alloc == nil {
		alloc = weightedAlloc(blocks, p.Workers)
	}
	wi := 0
	for _, b := range blocks {
		for n := 0; n < alloc[b] && wi < p.Workers; n++ {
			// Strict pipeline: each worker serves one queue, except that
			// the pilot-FFT and data-FFT workers form one FFT group (as in
			// BigStation's FFT servers) and take either kind.
			switch b {
			case queue.TaskPilotFFT:
				polls[wi] = []queue.TaskType{queue.TaskPilotFFT, queue.TaskFFT}
			case queue.TaskFFT:
				polls[wi] = []queue.TaskType{queue.TaskFFT, queue.TaskPilotFFT}
			default:
				polls[wi] = []queue.TaskType{b}
			}
			wi++
		}
	}
	for ; wi < p.Workers; wi++ { // leftovers help decode
		polls[wi] = []queue.TaskType{queue.TaskDecode}
	}
	return polls
}

// weightedAlloc splits workers among blocks by pipelineBlockWeights, at
// least one each, then trims or grows the largest group to exactly
// workers.
func weightedAlloc(blocks []queue.TaskType, workers int) map[queue.TaskType]int {
	alloc := make(map[queue.TaskType]int)
	var wsum float64
	for _, b := range blocks {
		wsum += pipelineBlockWeights[b]
	}
	assigned := 0
	for _, b := range blocks {
		n := max(int(float64(workers)*pipelineBlockWeights[b]/wsum), 1)
		alloc[b] = n
		assigned += n
	}
	for assigned != workers {
		big := blocks[0]
		for _, b := range blocks {
			if alloc[b] > alloc[big] {
				big = b
			}
		}
		if assigned > workers {
			if alloc[big] == 1 {
				break
			}
			alloc[big]--
			assigned--
		} else {
			alloc[big]++
			assigned++
		}
	}
	return alloc
}
