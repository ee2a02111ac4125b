package experiments

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
)

// Each experiment result renders to CSV so the paper's figures can be
// re-plotted with any tool. The first row is a header.

func writeCSV(header []string, rows [][]string) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(header)
	_ = w.WriteAll(rows)
	w.Flush()
	return b.String()
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// CSV renders an arm table: per arm its mean and SD of AR and FC, and
// each later arm's FC reduction against the first.
func (t ArmTable) CSV() string {
	header := []string{"optimizer", "p"}
	for a, name := range t.Arms {
		header = append(header, name+"_mean_ar", name+"_sd_ar", name+"_mean_fc", name+"_sd_fc")
		if a > 0 {
			header = append(header, name+"_fc_reduction_pct")
		}
	}
	var rows [][]string
	for _, r := range t.Rows {
		row := []string{r.Optimizer, strconv.Itoa(r.Depth)}
		for a, s := range r.Arms {
			row = append(row, f64(s.MeanAR), f64(s.SDAR), f64(s.MeanFC), f64(s.SDFC))
			if a > 0 {
				row = append(row, f64(s.FCReductionPct))
			}
		}
		rows = append(rows, row)
	}
	return writeCSV(header, rows)
}

// CSV renders the Fig. 1(c) series.
func (f Fig1cResult) CSV() string {
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Depth),
			f64(p.MeanAR), f64(p.SDAR), f64(p.BestAR), f64(p.WorstAR),
			f64(p.MeanFC), f64(p.SDFC),
		})
	}
	return writeCSV([]string{"p", "mean_ar", "sd_ar", "best_ar", "worst_ar", "mean_fc", "sd_fc"}, rows)
}

// CSV renders the Fig. 2 schedules, one row per (graph, depth, stage).
func (f Fig2Result) CSV() string {
	var rows [][]string
	for _, s := range f.Schedules {
		for i := range s.Gamma {
			rows = append(rows, []string{
				strconv.Itoa(s.GraphID), strconv.Itoa(s.Depth), strconv.Itoa(i + 1),
				f64(s.Gamma[i]), f64(s.Beta[i]), f64(s.AR),
			})
		}
	}
	return writeCSV([]string{"graph", "p", "stage", "gamma", "beta", "ar"}, rows)
}

// CSV renders the Fig. 3 trends, one row per (depth, stage).
func (f Fig3Result) CSV() string {
	var rows [][]string
	for d := range f.GammaByDepth {
		for i := range f.GammaByDepth[d] {
			rows = append(rows, []string{
				strconv.Itoa(d + 1), strconv.Itoa(i + 1),
				f64(f.GammaByDepth[d][i]), f64(f.BetaByDepth[d][i]), f64(f.ARByDepth[d]),
			})
		}
	}
	return writeCSV([]string{"p", "stage", "gamma", "beta", "ar"}, rows)
}

// CSV renders the Fig. 5 correlations, one row per (response, stage).
func (f Fig5Result) CSV() string {
	rows := [][]string{{"r_gamma1_beta1", "", "", f64(f.RGamma1Beta1), ""}}
	emit := func(kind string, list []StageCorrelation) {
		for _, r := range list {
			rows = append(rows, []string{
				kind, strconv.Itoa(r.Stage),
				f64(r.WithGamma1), f64(r.WithBeta1), f64(r.WithDepth),
			})
		}
	}
	emit("gamma", f.Gamma)
	emit("beta", f.Beta)
	return writeCSV([]string{"response", "stage", "r_with_gamma1", "r_with_beta1", "r_with_p"}, rows)
}

// CSV renders the Fig. 6 error distributions.
func (f Fig6Result) CSV() string {
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Depth), f64(p.MeanPct), f64(p.SDPct), strconv.Itoa(p.N),
		})
	}
	return writeCSV([]string{"p", "mean_pct_err", "sd_pct_err", "n"}, rows)
}

// CSV renders the model comparison.
func (m ModelComparisonResult) CSV() string {
	var rows [][]string
	for _, s := range m.Scores {
		rows = append(rows, []string{
			s.Name, f64(s.Metrics.MSE), f64(s.Metrics.RMSE), f64(s.Metrics.MAE),
			f64(s.Metrics.R2), f64(s.Metrics.R2Adj),
		})
	}
	return writeCSV([]string{"model", "mse", "rmse", "mae", "r2", "r2adj"}, rows)
}

// CSVName returns the canonical file name for an experiment id.
func CSVName(id string) string { return fmt.Sprintf("%s.csv", id) }
