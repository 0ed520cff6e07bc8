//! Figure 11: TM performance of Eager, Lazy, Bulk and Bulk-Partial on the
//! Java-workload stand-ins, as speedup over Eager.

use bulk_bench::{fmt_f, geomean, print_table, run_all_tm};
use bulk_sim::SimConfig;
use bulk_tm::Scheme;

fn main() {
    let cfg = SimConfig::tm_default();
    println!("Figure 11 — TM speedup over Eager (8 processors, S14 line signatures)\n");
    let results = run_all_tm(42, &cfg);

    let schemes = [Scheme::Eager, Scheme::Lazy, Scheme::Bulk, Scheme::BulkPartial];
    let mut rows = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for r in &results {
        let s: Vec<f64> = schemes.iter().map(|&sc| r.speedup_over_eager(sc)).collect();
        for (i, v) in s.iter().enumerate() {
            cols[i].push(*v);
        }
        let mut row = vec![r.name.clone()];
        row.extend(s.iter().map(|v| fmt_f(*v, 2)));
        rows.push(row);
    }
    let gm: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    let mut last = vec!["Geo.Mean".to_string()];
    last.extend(gm.iter().map(|v| fmt_f(*v, 2)));
    rows.push(last);
    print_table(&["App", "Eager", "Lazy", "Bulk", "Bulk-Partial"], &rows);

    println!();
    println!("Shape checks against the paper:");
    println!(
        "  Bulk ~= Lazy:                |1 - Bulk/Lazy| = {:.1}% (paper: ~0%)",
        100.0 * (1.0 - gm[2] / gm[1]).abs()
    );
    println!(
        "  Partial rollback impact:     {:.1}% over Bulk (paper: minor)",
        100.0 * (gm[3] / gm[2] - 1.0)
    );
    let sjbb = results.iter().find(|r| r.name == "sjbb2k").expect("sjbb2k present");
    println!(
        "  sjbb2k Lazy > Eager:         {:.2}x (paper: Lazy faster on SPECjbb2000)",
        sjbb.speedup_over_eager(Scheme::Lazy)
    );
}
