//! Table 6: characterization of Bulk in TLS — task footprints, false
//! positives, and Set Restriction costs, next to the paper's values.

use bulk_bench::{fmt_f, print_table};
use bulk_sim::SimConfig;
use bulk_tls::{run_tls, TlsScheme};
use bulk_trace::profiles;

/// One reference row of the paper's Table 6:
/// (app, rd, wr, dep, sq%, false-inv/com, safe-wb/task, wrwr/1k).
type PaperRow = (&'static str, f64, f64, f64, f64, f64, f64, f64);

const PAPER: &[PaperRow] = &[
    ("bzip2", 30.2, 4.9, 1.0, 10.5, 0.1, 2.9, 0.1),
    ("crafty", 109.0, 23.2, 2.6, 16.5, 0.0, 11.5, 0.3),
    ("gap", 42.4, 13.4, 6.6, 0.4, 0.5, 3.7, 0.0),
    ("gzip", 14.3, 4.8, 2.0, 1.4, 0.0, 1.5, 0.0),
    ("mcf", 12.3, 0.7, 1.0, 1.1, 0.0, 0.4, 0.0),
    ("parser", 29.6, 7.1, 2.3, 2.1, 0.1, 2.2, 5.5),
    ("twolf", 41.1, 6.4, 1.4, 14.0, 0.3, 6.3, 0.2),
    ("vortex", 34.7, 23.5, 3.6, 10.4, 0.3, 6.4, 31.6),
    ("vpr", 43.1, 8.7, 1.1, 5.6, 0.5, 4.1, 0.0),
];

fn main() {
    let cfg = SimConfig::tls_default();
    println!("Table 6 — Characterization of Bulk in TLS (measured | paper)\n");
    let mut rows = Vec::new();
    for p in profiles::tls_profiles() {
        let wl = p.generate(42);
        let s = run_tls(&wl, TlsScheme::Bulk, &cfg);
        let paper = PAPER.iter().find(|r| r.0 == p.name).expect("paper row");
        rows.push(vec![
            p.name.to_string(),
            format!("{} | {}", fmt_f(s.avg_rd_set(), 1), paper.1),
            format!("{} | {}", fmt_f(s.avg_wr_set(), 1), paper.2),
            format!("{} | {}", fmt_f(s.avg_dep_set(), 1), paper.3),
            format!("{} | {}", fmt_f(100.0 * s.false_squash_frac(), 1), paper.4),
            format!("{} | {}", fmt_f(s.false_inv_per_commit(), 1), paper.5),
            format!("{} | {}", fmt_f(s.safe_wb_per_task(), 1), paper.6),
            format!("{} | {}", fmt_f(s.wr_wr_per_1k_tasks(), 1), paper.7),
        ]);
    }
    print_table(
        &[
            "App",
            "RdSet(W)",
            "WrSet(W)",
            "DepSet(W)",
            "Sq(%)",
            "FalseInv/Com",
            "SafeWB/Tsk",
            "WrWr/1kTsk",
        ],
        &rows,
    );
    println!("\n  Columns show measured | paper. Footprints are generator-calibrated;");
    println!("  aliasing and Set-Restriction columns emerge from the simulation.");
}
