//! TLS bandwidth breakdown — the companion to Figure 13 that the paper
//! omits for space ("For TLS, we obtain qualitatively similar conclusions.
//! We do not show data due to space limitations."). Same format as `fig13`,
//! normalized to Eager's total per application.

use bulk_bench::{fmt_f, print_table, run_all_tls};
use bulk_mem::MsgClass;
use bulk_sim::SimConfig;

fn main() {
    let cfg = SimConfig::tls_default();
    println!("Figure 13 (TLS companion) — bandwidth breakdown, % of Eager's total\n");
    let results = run_all_tls(42, &cfg);

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
    print_table(&["App", "Sch", "Inv", "Coh", "UB", "WB", "Fill", "Total"], &rows);
    let n = results.len() as f64;
    println!();
    println!(
        "Average totals vs Eager: E={:.1}%  L={:.1}%  B={:.1}%",
        totals[0] / n,
        totals[1] / n,
        totals[2] / n
    );

    // Commit bandwidth, Bulk vs Lazy, as in Fig. 14 but for TLS.
    let mut sum = 0.0;
    for r in &results {
        sum += 100.0 * r.bulk.bw.commit_bytes() as f64 / r.lazy.bw.commit_bytes() as f64;
    }
    println!(
        "TLS commit bandwidth, Bulk/Lazy average: {:.1}% (signatures + shadow signatures \
         vs word-address enumerations)",
        sum / n
    );
}
