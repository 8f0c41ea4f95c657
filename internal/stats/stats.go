// Package stats defines the measurements the paper reports: the fetch
// width breakdown by termination condition (Figures 4 and 6), effective
// fetch rate, prediction-bandwidth demand (Table 3), fetch-cycle
// accounting (Figure 12), misprediction counts and resolution times
// (Figures 13-15), and IPC.
package stats

import "fmt"

// FetchEnd classifies why a fetch that delivered correct-path instructions
// was limited (Section 4, Figure 4). The seven conditions of the paper.
type FetchEnd uint8

// Fetch termination conditions.
const (
	EndPartialMatch FetchEnd = iota // predicted path diverged from the segment
	EndAtomicBlocks                 // fill unit finalized short (atomic block treatment)
	EndICache                       // fetch served by icache hit a control inst or line end
	EndMispredBR                    // a mispredicted branch terminated the fetch
	EndMaxSize                      // 16 instructions delivered
	EndRetIndirTrap                 // return, indirect jump, or trap
	EndMaxBRs                       // three on-path branches consumed
	NumFetchEnds
)

var endNames = [NumFetchEnds]string{
	"PartialMatch", "AtomicBlocks", "Icache", "MispredBR",
	"MaxSize", "Ret/Indir/Trap", "MaximumBRs",
}

// String names the termination condition as in the paper's legend.
func (e FetchEnd) String() string {
	if e < NumFetchEnds {
		return endNames[e]
	}
	return fmt.Sprintf("end(%d)", uint8(e))
}

// MaxFetchWidth is the widest fetch the machine supports.
const MaxFetchWidth = 16

// FetchHistogram is the fetch width breakdown: counts by delivered size
// and termination condition.
type FetchHistogram struct {
	Counts [MaxFetchWidth + 1][NumFetchEnds]uint64
}

// Add records a fetch of the given correct-path size and termination.
// Out-of-range arguments are clamped (an unknown termination counts as
// the last condition) rather than indexing out of bounds.
func (h *FetchHistogram) Add(size int, end FetchEnd) {
	if size < 0 {
		size = 0
	}
	if size > MaxFetchWidth {
		size = MaxFetchWidth
	}
	if end >= NumFetchEnds {
		end = NumFetchEnds - 1
	}
	h.Counts[size][end]++
}

// Total returns the number of recorded fetches.
func (h *FetchHistogram) Total() uint64 {
	var t uint64
	for _, row := range h.Counts {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// Mean returns the mean fetch size.
func (h *FetchHistogram) Mean() float64 {
	var t, sum uint64
	for size, row := range h.Counts {
		for _, c := range row {
			t += c
			sum += uint64(size) * c
		}
	}
	if t == 0 {
		return 0
	}
	return float64(sum) / float64(t)
}

// BySize returns the frequency of each fetch size (normalised).
func (h *FetchHistogram) BySize() [MaxFetchWidth + 1]float64 {
	var out [MaxFetchWidth + 1]float64
	t := h.Total()
	if t == 0 {
		return out
	}
	for size, row := range h.Counts {
		var s uint64
		for _, c := range row {
			s += c
		}
		out[size] = float64(s) / float64(t)
	}
	return out
}

// ByEnd returns the frequency of each termination condition (normalised).
func (h *FetchHistogram) ByEnd() [NumFetchEnds]float64 {
	var out [NumFetchEnds]float64
	t := h.Total()
	if t == 0 {
		return out
	}
	for _, row := range h.Counts {
		for e, c := range row {
			out[e] += float64(c) / float64(t)
		}
	}
	return out
}

// CycleClass classifies every fetch cycle for Figure 12's accounting.
type CycleClass uint8

// Fetch cycle classes.
const (
	CycleUseful     CycleClass = iota // delivered correct-path instructions
	CycleBranchMiss                   // delivered wrong-path instructions
	CycleCacheMiss                    // nothing delivered: instruction-supply miss
	CycleFullWindow                   // stalled: instruction window full
	CycleTrap                         // stalled: serializing trap in flight
	CycleMisfetch                     // wrong fetch address generated
	NumCycleClasses
)

var cycleNames = [NumCycleClasses]string{
	"Useful Fetch", "Branch Misses", "Cache Misses",
	"Full Window", "Traps", "Misfetches",
}

// String names the cycle class as in Figure 12's legend.
func (c CycleClass) String() string {
	if c < NumCycleClasses {
		return cycleNames[c]
	}
	return fmt.Sprintf("cycle(%d)", uint8(c))
}

// Run aggregates all statistics of one simulation.
type Run struct {
	Benchmark string
	Config    string

	// Meta is the run's provenance (attached by the simulator when the
	// run completes; nil until then). The pointed-to value is immutable
	// once set, so copies of Run may share it.
	Meta *Meta

	Cycles  uint64
	Retired uint64

	// Fetch statistics.
	Fetches        uint64 // fetch cycles that delivered >=1 correct-path instruction
	FetchedCorrect uint64 // correct-path instructions delivered by those fetches
	FetchedWrong   uint64 // wrong-path instructions fetched
	Hist           FetchHistogram
	PredsPerFetch  [4]uint64 // fetches by dynamic predictions consumed (0..3)
	Cycle          [NumCycleClasses]uint64
	TCMissCycles   uint64 // fetch cycles degraded by a trace cache miss

	// Branch statistics (correct path only).
	CondBranches     uint64
	CondMispredicts  uint64 // includes promoted-branch faults
	PromotedExecuted uint64
	PromotedFaults   uint64
	IndirectJumps    uint64
	IndirectMisses   uint64
	Returns          uint64

	// Misprediction resolution (Figure 15): cycles from prediction to
	// redirect, summed over resolved mispredictions.
	ResolutionSum      uint64
	ResolutionsCounted uint64

	// Per-source breakdown of conditional branches and their
	// mispredictions (diagnostic).
	CondBySource [NumPredSources]uint64
	MissBySource [NumPredSources]uint64
}

// AddFetch records one fetch that delivered n > 0 correct-path
// instructions: end is why it stopped (a mispredicted branch in it
// overrides that with EndMispredBR) and predsUsed the dynamic
// predictions it consumed.
//
//tc:hotpath
func (r *Run) AddFetch(n int, end FetchEnd, mispredBR bool, predsUsed int) {
	r.Fetches++
	r.FetchedCorrect += uint64(n)
	if mispredBR {
		end = EndMispredBR
	}
	r.Hist.Add(n, end)
	if predsUsed > 3 {
		predsUsed = 3
	}
	r.PredsPerFetch[predsUsed]++
}

// PredSource identifies what predicted a retired conditional branch.
type PredSource uint8

// Prediction sources.
const (
	SrcSlot     PredSource = iota // multiple-branch-predictor slot
	SrcHybrid                     // hybrid predictor (icache front end)
	SrcPromoted                   // static promoted prediction
	SrcEmbedded                   // segment-embedded outcome (inactive issue)
	NumPredSources
)

var srcNames = [NumPredSources]string{"slot", "hybrid", "promoted", "embedded"}

// String names the source.
func (p PredSource) String() string {
	if p < NumPredSources {
		return srcNames[p]
	}
	return fmt.Sprintf("src(%d)", uint8(p))
}

// IPC returns retired instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// EffFetchRate returns the effective fetch rate: the mean number of
// correct-path instructions over fetches that returned instructions on the
// correct execution path.
func (r *Run) EffFetchRate() float64 {
	if r.Fetches == 0 {
		return 0
	}
	return float64(r.FetchedCorrect) / float64(r.Fetches)
}

// CondMispredictRate returns mispredictions (including promoted faults)
// per conditional branch.
func (r *Run) CondMispredictRate() float64 {
	if r.CondBranches == 0 {
		return 0
	}
	return float64(r.CondMispredicts) / float64(r.CondBranches)
}

// TotalMispredicts returns conditional plus indirect mispredictions
// (returns are ideal), as counted by Figure 14.
func (r *Run) TotalMispredicts() uint64 { return r.CondMispredicts + r.IndirectMisses }

// AvgResolution returns the mean mispredicted-branch resolution time.
func (r *Run) AvgResolution() float64 {
	if r.ResolutionsCounted == 0 {
		return 0
	}
	return float64(r.ResolutionSum) / float64(r.ResolutionsCounted)
}

// LostToMispredicts returns the number of fetch cycles lost to branch
// mispredictions (wrong-path fetch plus misfetch cycles), the quantity
// Figure 13 tracks.
func (r *Run) LostToMispredicts() uint64 {
	return r.Cycle[CycleBranchMiss] + r.Cycle[CycleMisfetch]
}

// CycleSum returns the sum of the fetch-cycle classification buckets. The
// self-check layer verifies it stays within a bounded drift of Cycles
// (the Figure 12 conservation identity).
func (r *Run) CycleSum() uint64 {
	var sum uint64
	for _, v := range r.Cycle {
		sum += v
	}
	return sum
}

// PredsFracs returns the fraction of fetches needing 0-1, 2, and 3
// dynamic predictions (Table 3).
func (r *Run) PredsFracs() (zeroOrOne, two, three float64) {
	total := r.PredsPerFetch[0] + r.PredsPerFetch[1] + r.PredsPerFetch[2] + r.PredsPerFetch[3]
	if total == 0 {
		return 0, 0, 0
	}
	t := float64(total)
	return float64(r.PredsPerFetch[0]+r.PredsPerFetch[1]) / t,
		float64(r.PredsPerFetch[2]) / t,
		float64(r.PredsPerFetch[3]) / t
}

// Accumulate adds every counter of w into r, leaving Benchmark, Config
// and Meta untouched. Sampled runs use it to pool the per-window
// measurement counters into one Run whose ratio statistics (IPC,
// effective fetch rate, mispredict rate) become instruction-weighted
// estimates over the measured subset. TestAccumulateCoversAllFields
// guards that new Run counters are added here too.
func (r *Run) Accumulate(w *Run) {
	r.Cycles += w.Cycles
	r.Retired += w.Retired
	r.Fetches += w.Fetches
	r.FetchedCorrect += w.FetchedCorrect
	r.FetchedWrong += w.FetchedWrong
	for size := range w.Hist.Counts {
		for end, c := range w.Hist.Counts[size] {
			r.Hist.Counts[size][end] += c
		}
	}
	for i, c := range w.PredsPerFetch {
		r.PredsPerFetch[i] += c
	}
	for i, c := range w.Cycle {
		r.Cycle[i] += c
	}
	r.TCMissCycles += w.TCMissCycles
	r.CondBranches += w.CondBranches
	r.CondMispredicts += w.CondMispredicts
	r.PromotedExecuted += w.PromotedExecuted
	r.PromotedFaults += w.PromotedFaults
	r.IndirectJumps += w.IndirectJumps
	r.IndirectMisses += w.IndirectMisses
	r.Returns += w.Returns
	r.ResolutionSum += w.ResolutionSum
	r.ResolutionsCounted += w.ResolutionsCounted
	for i, c := range w.CondBySource {
		r.CondBySource[i] += c
	}
	for i, c := range w.MissBySource {
		r.MissBySource[i] += c
	}
}

// PercentChange returns 100*(new-old)/old, or 0 when old is 0.
func PercentChange(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}
