package experiments

import (
	"fmt"
	"io"
	"strings"
)

// RunCLI runs the selected paper experiments and prints their tables to w.
// expSel is a comma-separated subset of table3, fig4, fig5, fig6, fig7,
// fig8, fig9, ablations — or "all". `siesta bench -exp` calls it.
func RunCLI(cfg Config, expSel string, w io.Writer) error {
	want := strings.Split(expSel, ",")
	known := map[string]bool{
		"all": true, "table3": true, "fig4": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "fig9": true, "ablations": true,
	}
	for _, sel := range want {
		if !known[strings.TrimSpace(sel)] {
			return fmt.Errorf("unknown experiment %q (want table3, fig4..fig9, ablations, or all)", strings.TrimSpace(sel))
		}
	}
	run := func(name string) bool {
		if expSel == "all" {
			return true
		}
		for _, sel := range want {
			if strings.TrimSpace(sel) == name {
				return true
			}
		}
		return false
	}

	if run("table3") {
		rows, err := Table3(cfg)
		if err != nil {
			return fmt.Errorf("table3: %w", err)
		}
		fmt.Fprintln(w, "=== Table 3: Specification of generated proxy-apps ===")
		fmt.Fprint(w, FormatTable3(rows))
		fmt.Fprintln(w)
	}
	if run("fig4") {
		rows, err := Fig4(cfg)
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		fmt.Fprint(w, FormatRates("=== Figure 4: single computation event vs MINIME ===", rows))
		fmt.Fprintln(w)
	}
	if run("fig5") {
		rows, err := Fig5(cfg)
		if err != nil {
			return fmt.Errorf("fig5: %w", err)
		}
		fmt.Fprint(w, FormatRates("=== Figure 5: computation event sequence vs MINIME ===", rows))
		fmt.Fprintln(w)
	}
	var sum6 Fig6Summary
	var have6 bool
	if run("fig6") {
		rows, sum, err := Fig6(cfg)
		if err != nil {
			return fmt.Errorf("fig6: %w", err)
		}
		sum6, have6 = sum, true
		fmt.Fprintln(w, "=== Figure 6: proxy-app execution time (and Pilgrim, §3.4.1) ===")
		fmt.Fprint(w, FormatFig6(rows, sum))
		fmt.Fprintln(w)
	}
	var sum7 EnvSummary
	var have7 bool
	if run("fig7") {
		rows, sum, err := Fig7(cfg)
		if err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		sum7, have7 = sum, true
		fmt.Fprint(w, FormatEnvRows(
			"=== Figure 7: robustness to MPI implementation changes ===", rows,
			fmt.Sprintf("mean %%error: Siesta %.2f%%, ScalaBench %.2f%%  (paper: 5.78%%, 33.58%%)",
				sum.Siesta*100, sum.ScalaBench*100)))
		fmt.Fprintln(w)
	}
	var sum8 EnvSummary
	var have8 bool
	if run("fig8") {
		rows, sum, err := Fig8(cfg)
		if err != nil {
			return fmt.Errorf("fig8: %w", err)
		}
		sum8, have8 = sum, true
		fmt.Fprint(w, FormatEnvRows(
			"=== Figure 8: portability between platforms A and C ===", rows,
			fmt.Sprintf("mean %%error: Siesta %.2f%%, ScalaBench %.2f%%  (paper: 6.83%%, 18.11%%)",
				sum.Siesta*100, sum.ScalaBench*100)))
		fmt.Fprintln(w)
	}
	if run("ablations") {
		a, err := Ablations(cfg)
		if err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		fmt.Fprintln(w, "=== Ablations (beyond the paper; see DESIGN.md §4) ===")
		fmt.Fprint(w, FormatAblations(a))
		fmt.Fprintln(w)
	}
	var sum9B EnvSummary
	var have9 bool
	if run("fig9") {
		rows, sameA, portedB, err := Fig9(cfg)
		if err != nil {
			return fmt.Errorf("fig9: %w", err)
		}
		sum9B, have9 = portedB, true
		fmt.Fprint(w, FormatEnvRows(
			"=== Figure 9: BT and CG on platforms A and B ===", rows,
			fmt.Sprintf("mean %%error on A: Siesta %.2f%%, ScalaBench %.2f%%; ported to B: Siesta %.2f%%, ScalaBench %.2f%%  (paper on B: 13.68%%, 70.44%%)",
				sameA.Siesta*100, sameA.ScalaBench*100, portedB.Siesta*100, portedB.ScalaBench*100)))
		fmt.Fprintln(w)
	}
	if have6 && have7 && have8 && have9 {
		fmt.Fprintln(w, "=== Recap: mean time errors vs paper ===")
		fmt.Fprintf(w, "%-34s %10s %10s\n", "experiment", "measured", "paper")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig6 Siesta", sum6.Siesta*100, "5.30%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig6 Siesta-scaled", sum6.SiestaScaled*100, "9.31%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig6 ScalaBench", sum6.ScalaBench*100, "13.13%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "§3.4.1 Pilgrim", sum6.Pilgrim*100, "84.30%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig7 Siesta (impl change)", sum7.Siesta*100, "5.78%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig7 ScalaBench", sum7.ScalaBench*100, "33.58%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig8 Siesta (A↔C)", sum8.Siesta*100, "6.83%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig8 ScalaBench", sum8.ScalaBench*100, "18.11%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig9 Siesta (ported to B)", sum9B.Siesta*100, "13.68%")
		fmt.Fprintf(w, "%-34s %9.2f%% %10s\n", "Fig9 ScalaBench (ported to B)", sum9B.ScalaBench*100, "70.44%")
	}
	return nil
}
