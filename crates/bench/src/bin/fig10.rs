//! Figure 10: TLS performance of Eager, Lazy, Bulk and BulkNoOverlap on
//! the SPECint2000 stand-ins, as speedup over sequential execution.

use bulk_bench::{fmt_f, geomean, print_table, run_all_tls};
use bulk_sim::SimConfig;
use bulk_tls::TlsScheme;

fn main() {
    let cfg = SimConfig::tls_default();
    println!("Figure 10 — TLS speedup over sequential (4 processors, S14 word signatures)\n");
    let results = run_all_tls(42, &cfg);

    let mut rows = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for r in &results {
        let s: Vec<f64> = TlsScheme::ALL.iter().map(|&sc| r.speedup(sc)).collect();
        for (i, v) in s.iter().enumerate() {
            cols[i].push(*v);
        }
        rows.push(vec![
            r.name.clone(),
            fmt_f(s[0], 2),
            fmt_f(s[1], 2),
            fmt_f(s[2], 2),
            fmt_f(s[3], 2),
        ]);
    }
    rows.push(vec![
        "Geo.Mean".into(),
        fmt_f(geomean(&cols[0]), 2),
        fmt_f(geomean(&cols[1]), 2),
        fmt_f(geomean(&cols[2]), 2),
        fmt_f(geomean(&cols[3]), 2),
    ]);
    print_table(
        &["App", "TLS-Eager", "TLS-Lazy", "TLS-Bulk", "TLS-BulkNoOverlap"],
        &rows,
    );

    let gm: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    println!();
    println!("Shape checks against the paper:");
    println!(
        "  Bulk vs Eager slowdown:      {:.1}% (paper: ~5%)",
        100.0 * (1.0 - gm[2] / gm[0])
    );
    println!(
        "  BulkNoOverlap below Bulk:    {:.1}% (paper: ~17%)",
        100.0 * (1.0 - gm[3] / gm[2])
    );
    println!(
        "  Ordering Eager >= Lazy >= Bulk > BulkNoOverlap: {}",
        gm[0] >= gm[1] && gm[1] >= gm[2] * 0.995 && gm[2] > gm[3]
    );
}
