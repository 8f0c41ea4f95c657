package sim

import (
	"fmt"

	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/core"
	"tracecache/internal/fetch"
	"tracecache/internal/program"
	"tracecache/internal/stats"
)

// frontEnd bundles the fetch-path structures — cache hierarchy, indirect
// predictor, trace cache, fill unit, multiple-branch/hybrid predictor and
// fetch engine — and everything done to them at commit. The detailed
// simulator and the replay engine both embed it and retire through the
// same commit method. Everything here is driven purely by fetch requests
// and the retired stream, which is what makes a front-end-only replay
// possible: Replayer runs exactly these structures with no execution core
// attached.
type frontEnd struct {
	hier *cache.Hierarchy
	ind  *bpred.IndirectPredictor
	tc   *core.TraceCache
	fill *core.FillUnit
	mbp  bpred.MultiPredictor
	hyb  *bpred.Hybrid
	fe   fetch.Engine

	fiBuf []*fetch.FetchedInst // applyEffects scratch
}

// newFrontEnd builds the front end the configuration describes.
func newFrontEnd(cfg Config, prog *program.Program) (frontEnd, error) {
	var f frontEnd
	ccs := cfg.cacheConfigs()
	l1i, err := cache.New(ccs[0])
	if err != nil {
		return f, fmt.Errorf("sim %q: %w", cfg.Name, err)
	}
	l1d, err := cache.New(ccs[1])
	if err != nil {
		return f, fmt.Errorf("sim %q: %w", cfg.Name, err)
	}
	l2, err := cache.New(ccs[2])
	if err != nil {
		return f, fmt.Errorf("sim %q: %w", cfg.Name, err)
	}
	f.hier = &cache.Hierarchy{L1I: l1i, L1D: l1d, L2: l2}
	f.ind = bpred.NewIndirectPredictor(cfg.IndirectEntries)
	switch cfg.Front {
	case FrontTrace:
		tc, err := core.NewTraceCache(cfg.TC)
		if err != nil {
			return f, err
		}
		f.tc = tc
		f.fill = core.NewFillUnit(cfg.Fill, tc)
		switch {
		case cfg.SingleHybrid:
			f.mbp = bpred.NewSingleHybridMBP(bpred.NewHybrid())
		case cfg.SplitMBP:
			f.mbp = bpred.NewSplitMBP(cfg.SplitSizes[0], cfg.SplitSizes[1], cfg.SplitSizes[2])
		default:
			f.mbp = bpred.NewTreeMBP(cfg.TreeEntries)
		}
		f.fe = fetch.NewTraceEngine(fetch.TraceConfig{
			Prog: prog, TC: tc, MBP: f.mbp, Indirect: f.ind, Hier: f.hier,
			MaxWidth:             cfg.FetchWidth,
			PathAssoc:            cfg.TC.PathAssoc,
			DisableInactiveIssue: cfg.DisableInactiveIssue,
		})
	default:
		f.hyb = bpred.NewHybrid()
		f.fe = fetch.NewICacheEngine(fetch.ICacheConfig{
			Prog: prog, Hier: f.hier, Hybrid: f.hyb, Indirect: f.ind,
			MaxWidth: cfg.FetchWidth,
		})
	}
	return f, nil
}

// TraceCache returns the trace cache (nil for the icache front end).
func (f *frontEnd) TraceCache() *core.TraceCache { return f.tc }

// FillUnit returns the fill unit (nil for the icache front end).
func (f *frontEnd) FillUnit() *core.FillUnit { return f.fill }

// Hierarchy returns the cache hierarchy.
func (f *frontEnd) Hierarchy() *cache.Hierarchy { return f.hier }

// commit retires one committed-path instruction into the front end: the
// fill unit (and through it the bias table) consumes it, the predictor
// that supplied its prediction trains, and run accumulates the
// retired-instruction, branch-source, indirect and return counters; a
// store touches the data cache. taken, nextPC and memAddr are the
// instruction's architectural outcome, mispred whether its prediction
// was wrong, and alignFill marks the first instruction of a trace-cache
// miss fetch (the fill unit anchors a new segment there).
//
//tc:hotpath
func (f *frontEnd) commit(run *stats.Run, fi *fetch.FetchedInst, taken bool, nextPC int, memAddr uint64, mispred, alignFill bool) {
	in := fi.Inst
	run.Retired++
	if f.fill != nil {
		if alignFill {
			f.fill.Align()
		}
		f.fill.Retire(fi.PC, in, taken)
	}
	switch {
	case in.IsCondBranch():
		run.CondBranches++
		src := stats.SrcEmbedded
		if fi.Promoted {
			src = stats.SrcPromoted
			run.PromotedExecuted++
			if mispred {
				run.PromotedFaults++
			}
		} else if fi.UsedSlot {
			src = stats.SrcSlot
			f.mbp.Update(fi.Ctx, taken)
		} else if fi.UsedHybrid {
			src = stats.SrcHybrid
			f.hyb.Update(fi.HCtx, taken)
		}
		run.CondBySource[src]++
		if mispred {
			run.MissBySource[src]++
			run.CondMispredicts++
		}
	case in.IsIndirect():
		run.IndirectJumps++
		f.ind.Update(fi.PC, nextPC)
		if mispred {
			run.IndirectMisses++
		}
	case in.IsReturn():
		run.Returns++
	case in.IsStore():
		f.hier.AccessData(memAddr)
	}
}

// demote checks a faulting promoted branch against the bias table and,
// when its promotion no longer holds, invalidates the trace-cache
// segments that embed it. It reports whether it demoted and how many
// segments it invalidated.
func (f *frontEnd) demote(fi *fetch.FetchedInst) (n int, demoted bool) {
	if f.fill == nil || f.fill.Bias() == nil || !f.fill.Bias().ShouldDemote(fi.PC, fi.Predicted) {
		return 0, false
	}
	return f.tc.InvalidatePromoted(fi.PC), true
}

// applyEffects re-applies the fetch-state effects of a diverging branch's
// inactive suffix (its embedded path turned out correct) and returns the
// PC where fetch resumes.
func (f *frontEnd) applyEffects(suffix []fetch.FetchedInst) int {
	f.fiBuf = f.fiBuf[:0]
	for i := range suffix {
		f.fiBuf = append(f.fiBuf, &suffix[i])
	}
	return f.fe.ApplyEffects(f.fiBuf)
}
