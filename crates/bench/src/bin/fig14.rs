//! Figure 14: commit bandwidth of Bulk (RLE-compressed signatures)
//! normalized to Lazy (address enumerations).

use bulk_bench::{fmt_f, print_table, run_all_tm};
use bulk_sim::SimConfig;

fn main() {
    let cfg = SimConfig::tm_default();
    println!("Figure 14 — Commit bandwidth of Bulk normalized to Lazy (%)\n");
    let results = run_all_tm(42, &cfg);

    let mut rows = Vec::new();
    let mut sum = 0.0;
    for r in &results {
        let pct = 100.0 * r.bulk.bw.commit_bytes() as f64 / r.lazy.bw.commit_bytes() as f64;
        sum += pct;
        rows.push(vec![
            r.name.clone(),
            r.lazy.bw.commit_bytes().to_string(),
            r.bulk.bw.commit_bytes().to_string(),
            fmt_f(pct, 1),
        ]);
    }
    let avg = sum / results.len() as f64;
    rows.push(vec!["Avg".into(), String::new(), String::new(), fmt_f(avg, 1)]);
    print_table(&["App", "Lazy (B)", "Bulk (B)", "Bulk/Lazy (%)"], &rows);
    println!();
    println!(
        "Average commit-bandwidth reduction: {:.1}% (paper: ~83%)",
        100.0 - avg
    );
}
