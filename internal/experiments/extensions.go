package experiments

import (
	"fmt"
	"strings"

	"tracecache/internal/config"
	"tracecache/internal/core"
	"tracecache/internal/program"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/textplot"
	"tracecache/internal/workload"
)

// Extensions returns ablation experiments grounded in the paper's text but
// beyond its figures: static promotion (Section 4 sketches it), path
// associativity (Section 3 defers to [9]), inactive issue (the baseline
// includes it per [5]), and the trace-cache size sensitivity Section 5's
// closing paragraph predicts ("such techniques to regulate redundancy may
// be necessary" below 128KB).
func Extensions() []Experiment {
	return []Experiment{
		{"ext-static", "Static vs dynamic branch promotion",
			"Section 4: static promotion skips warm-up but misses input-sensitive branches", ExtStatic},
		{"ext-pathassoc", "Path associativity",
			"Section 3 baseline stores one path per start; [9] analyses the alternative", ExtPathAssoc},
		{"ext-inactive", "Inactive issue ablation",
			"the baseline includes inactive issue [5]; removing it wastes partial matches", ExtInactive},
		{"ext-tcsize", "Packing regulation vs trace cache size",
			"Section 5: redundancy regulation becomes crucial below 128KB", ExtTCSize},
		{"ext-8wide", "8-wide trace cache with hybrid single-branch prediction",
			"Section 4: promotion enables aggressive single hybrid prediction for an 8-wide engine", Ext8Wide},
	}
}

// StaticPromotionConfig returns the static-promotion machine for one
// program: the promotion configuration with profile-derived annotations in
// place of the bias table. It is an ordinary configuration under its own
// name, so RunE memoizes and stores it like any other.
func StaticPromotionConfig(prog *program.Program) sim.Config {
	cfg := config.Promotion(config.PromotionThreshold)
	cfg.Name = "static-promo"
	cfg.Fill.StaticPromotions = core.ProfileStaticPromotions(prog, core.DefaultStaticProfileConfig())
	return cfg
}

// ExtStatic compares dynamic promotion against profile-guided static
// promotion.
func ExtStatic(r *Runner) (string, error) {
	rows := make([][]string, 0, 16)
	var dSum, sSum, bSum float64
	for _, bench := range workload.Names() {
		base, err := r.RunE(config.Baseline(), bench)
		if err != nil {
			return "", err
		}
		dyn, err := r.RunE(config.Promotion(config.PromotionThreshold), bench)
		if err != nil {
			return "", err
		}
		prog, err := workload.SharedProgram(bench)
		if err != nil {
			return "", err
		}
		st, err := r.RunE(StaticPromotionConfig(prog), bench)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			workload.ShortName(bench),
			fmt.Sprintf("%.2f", base.EffFetchRate()),
			fmt.Sprintf("%.2f", dyn.EffFetchRate()),
			fmt.Sprintf("%.2f", st.EffFetchRate()),
			fmt.Sprintf("%d", dyn.PromotedFaults),
			fmt.Sprintf("%d", st.PromotedFaults),
		})
		bSum += base.EffFetchRate()
		dSum += dyn.EffFetchRate()
		sSum += st.EffFetchRate()
	}
	n := float64(len(workload.Names()))
	rows = append(rows, []string{"AVG",
		fmt.Sprintf("%.2f", bSum/n), fmt.Sprintf("%.2f", dSum/n),
		fmt.Sprintf("%.2f", sSum/n), "", ""})
	return textplot.Table(
		[]string{"Benchmark", "baseline eff", "dynamic eff", "static eff", "dyn faults", "static faults"},
		rows), nil
}

// ExtPathAssoc measures path associativity on the baseline and the packed
// trace cache.
func ExtPathAssoc(r *Runner) (string, error) {
	pa := func(c sim.Config) sim.Config {
		c.Name += "+pathassoc"
		c.TC.PathAssoc = true
		return c
	}
	var b strings.Builder
	for _, pair := range []struct {
		label string
		cfg   sim.Config
	}{
		{"baseline", config.Baseline()},
		{"promo+pack-unreg", config.PromotionPacking(core.PackUnregulated, config.PromotionThreshold)},
	} {
		plain, err := r.SweepE(pair.cfg)
		if err != nil {
			return "", err
		}
		assoc, err := r.SweepE(pa(pair.cfg))
		if err != nil {
			return "", err
		}
		var pe, ae float64
		var pm, am uint64
		for i := range plain {
			pe += plain[i].EffFetchRate()
			ae += assoc[i].EffFetchRate()
			pm += plain[i].TCMissCycles
			am += assoc[i].TCMissCycles
		}
		n := float64(len(plain))
		fmt.Fprintf(&b, "%s: eff %.2f -> %.2f with path associativity (%+.1f%%); TC miss cycles %+.1f%%\n",
			pair.label, pe/n, ae/n, stats.PercentChange(pe/n, ae/n),
			stats.PercentChange(float64(pm), float64(am)))
	}
	return b.String(), nil
}

// ExtInactive removes inactive issue from the baseline.
func ExtInactive(r *Runner) (string, error) {
	off := config.Baseline()
	off.Name = "baseline-no-inactive"
	off.DisableInactiveIssue = true
	with, err := r.SweepE(config.Baseline())
	if err != nil {
		return "", err
	}
	without, err := r.SweepE(off)
	if err != nil {
		return "", err
	}
	we, wo := make([]float64, len(with)), make([]float64, len(with))
	for i := range with {
		we[i] = with[i].EffFetchRate()
		wo[i] = without[i].EffFetchRate()
	}
	out := textplot.GroupedBars("Effective fetch rate with and without inactive issue",
		r.ShortBenchmarks(), []string{"inactive issue", "no inactive issue"},
		[][]float64{we, wo}, 40)
	out += fmt.Sprintf("\nAverage: %.2f with, %.2f without (%+.1f%%)\n",
		avg(we), avg(wo), stats.PercentChange(avg(we), avg(wo)))
	return out, nil
}

// ExtTCSizeBenchmarks are the miss-sensitive benchmarks used by the size
// sweep (the Table 4 set).
var ExtTCSizeBenchmarks = Table4Benchmarks

// ExtTCSize sweeps the trace cache size for three packing policies under
// promotion, showing regulation mattering more as the cache shrinks.
func ExtTCSize(r *Runner) (string, error) {
	sizes := []int{256, 512, 1024, 2048}
	policies := []core.PackPolicy{core.PackAtomic, core.PackUnregulated, core.PackCostRegulated}
	var b strings.Builder
	header := []string{"TC entries"}
	for _, p := range policies {
		header = append(header, p.String()+" eff", p.String()+" missCyc")
	}
	rows := make([][]string, 0, len(sizes))
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%d (%dKB)", size, size*16*4/1024)}
		for _, pol := range policies {
			cfg := config.PromotionPacking(pol, config.PromotionThreshold)
			cfg.Name = fmt.Sprintf("ext-tc%d-%s", size, pol)
			cfg.TC.Entries = size
			var eff float64
			var miss uint64
			for _, bench := range ExtTCSizeBenchmarks {
				run, err := r.RunE(cfg, bench)
				if err != nil {
					return "", err
				}
				eff += run.EffFetchRate()
				miss += run.TCMissCycles
			}
			n := float64(len(ExtTCSizeBenchmarks))
			row = append(row, fmt.Sprintf("%.2f", eff/n), fmt.Sprintf("%d", miss))
		}
		rows = append(rows, row)
	}
	b.WriteString(textplot.Table(header, rows))
	b.WriteString("\n(effective fetch rate and trace-cache miss cycles averaged/summed over ")
	b.WriteString(strings.Join(ExtTCSizeBenchmarks, ", "))
	b.WriteString(")\n")
	return b.String(), nil
}

// Ext8Wide evaluates Section 4's near-term design point: an 8-wide trace
// cache where branch promotion collapses prediction-bandwidth demand to
// roughly one branch per fetch, letting an aggressive hybrid single-branch
// predictor sequence the trace cache.
func Ext8Wide(r *Runner) (string, error) {
	cfgs := []sim.Config{
		config.EightWide(config.Baseline()),
		config.EightWide(config.Promotion(config.PromotionThreshold)),
		config.EightWidePromotionHybrid(),
	}
	labels := []string{"8-wide baseline (tree MBP)", "8-wide promotion (tree MBP)", "8-wide promotion (hybrid 1-br)"}
	rows := make([][]string, 0, len(cfgs))
	for i, cfg := range cfgs {
		runs, err := r.SweepE(cfg)
		if err != nil {
			return "", err
		}
		var eff, mis, ipc float64
		for _, run := range runs {
			eff += run.EffFetchRate()
			mis += run.CondMispredictRate()
			ipc += run.IPC()
		}
		n := float64(len(runs))
		rows = append(rows, []string{
			labels[i],
			fmt.Sprintf("%.2f", eff/n),
			fmt.Sprintf("%.2f%%", 100*mis/n),
			fmt.Sprintf("%.2f", ipc/n),
		})
	}
	return textplot.Table([]string{"Configuration", "Eff fetch", "Cond mispredict", "IPC"}, rows), nil
}
