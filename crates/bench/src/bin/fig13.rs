//! Figure 13: TM bandwidth-usage breakdown (Inv/Coh/UB/WB/Fill) for
//! Eager, Lazy and Bulk, normalized to Eager's total per application.

use bulk_bench::{fmt_f, print_table, run_all_tm};
use bulk_mem::MsgClass;
use bulk_sim::SimConfig;

fn main() {
    let cfg = SimConfig::tm_default();
    println!("Figure 13 — TM bandwidth breakdown, % of Eager's total per app\n");
    let results = run_all_tm(42, &cfg);

    let mut rows = Vec::new();
    let mut totals = [0.0f64; 3];
    for r in &results {
        let eager_total = r.eager.bw.total() as f64;
        for (si, (label, bw)) in
            [("E", &r.eager.bw), ("L", &r.lazy.bw), ("B", &r.bulk.bw)].iter().enumerate()
        {
            let mut row = vec![r.name.clone(), label.to_string()];
            for class in MsgClass::ALL {
                row.push(fmt_f(100.0 * bw.bytes(class) as f64 / eager_total, 1));
            }
            let total_pct = 100.0 * bw.total() as f64 / eager_total;
            totals[si] += total_pct;
            row.push(fmt_f(total_pct, 1));
            rows.push(row);
        }
    }
    print_table(
        &["App", "Sch", "Inv", "Coh", "UB", "WB", "Fill", "Total"],
        &rows,
    );
    let n = results.len() as f64;
    println!();
    println!("Average totals vs Eager: E={:.1}%  L={:.1}%  B={:.1}%", totals[0] / n, totals[1] / n, totals[2] / n);
    println!("Shape check (paper): Bulk slightly above Lazy, below or near Eager.");
}
