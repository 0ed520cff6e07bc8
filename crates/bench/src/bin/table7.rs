//! Table 7: characterization of Bulk in TM — transaction footprints, false
//! positives, Set Restriction cost and overflow-area accesses relative to
//! Lazy, next to the paper's values.

use bulk_bench::{fmt_f, print_table};
use bulk_sim::SimConfig;
use bulk_tm::{run_tm, Scheme};
use bulk_trace::profiles;

/// One reference row of the paper's Table 7:
/// (app, rd, wr, dep, sq%, false-inv/com, safe-wb/tr, overflow B/L %).
type PaperRow = (&'static str, f64, f64, f64, f64, f64, f64, f64);

const PAPER: &[PaperRow] = &[
    ("cb", 73.6, 26.9, 1.4, 20.0, 0.6, 1.5, 6.2),
    ("jgrt", 67.1, 22.1, 1.3, 22.1, 0.2, 0.5, 4.3),
    ("lu", 81.7, 27.3, 1.3, 12.8, 0.7, 0.8, 5.6),
    ("mc", 51.6, 17.6, 1.9, 9.8, 0.1, 2.6, 3.3),
    ("moldyn", 70.2, 25.1, 1.3, 10.7, 0.4, 0.4, 2.6),
    ("series", 86.9, 25.9, 1.1, 13.7, 0.1, 0.3, 2.1),
    ("sjbb2k", 41.6, 11.2, 1.4, 7.7, 0.1, 0.2, 0.8),
];

fn main() {
    let cfg = SimConfig::tm_default();
    println!("Table 7 — Characterization of Bulk in TM (measured | paper)\n");
    let mut rows = Vec::new();
    for p in profiles::tm_profiles() {
        let wl = p.generate(42);
        let bulk = run_tm(&wl, Scheme::Bulk, &cfg);
        let lazy = run_tm(&wl, Scheme::Lazy, &cfg);
        let overflow_ratio = if lazy.overflow_accesses > 0 {
            100.0 * bulk.overflow_accesses as f64 / lazy.overflow_accesses as f64
        } else {
            0.0
        };
        let paper = PAPER.iter().find(|r| r.0 == p.name).expect("paper row");
        rows.push(vec![
            p.name.to_string(),
            format!("{} | {}", fmt_f(bulk.avg_rd_set(), 1), paper.1),
            format!("{} | {}", fmt_f(bulk.avg_wr_set(), 1), paper.2),
            format!("{} | {}", fmt_f(bulk.avg_dep_set(), 1), paper.3),
            format!("{} | {}", fmt_f(100.0 * bulk.false_squash_frac(), 1), paper.4),
            format!("{} | {}", fmt_f(bulk.false_inv_per_commit(), 1), paper.5),
            format!("{} | {}", fmt_f(bulk.safe_wb_per_commit(), 1), paper.6),
            format!("{} | {}", fmt_f(overflow_ratio, 1), paper.7),
        ]);
    }
    print_table(
        &[
            "App",
            "RdSet(L)",
            "WrSet(L)",
            "DepSet(L)",
            "Sq(%)",
            "FalseInv/Com",
            "SafeWB/Tr",
            "Ovfl B/L(%)",
        ],
        &rows,
    );
    println!("\n  Columns show measured | paper. The Overflow column is Bulk's");
    println!("  overflow-area accesses as a percentage of Lazy's (paper avg: 3.6%).");
}
