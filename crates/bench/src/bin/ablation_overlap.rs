//! Ablation: how much Partial Overlap (§6.3) is worth as a function of
//! how much parent→child live-in forwarding a workload does — the design
//! choice behind the Fig. 10 `BulkNoOverlap` bar, swept.

use bulk_bench::{fmt_f, print_table};
use bulk_sim::SimConfig;
use bulk_tls::{run_tls, run_tls_sequential, TlsScheme};
use bulk_trace::profiles;

fn main() {
    let cfg = SimConfig::tls_default();
    println!("Ablation — Partial Overlap benefit vs live-in consumption (app: parser)\n");
    let base = profiles::tls_profile("parser").expect("profile");

    let mut rows = Vec::new();
    for live_in_prob in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut p = base.clone();
        p.live_in_prob = live_in_prob;
        let wl = p.generate(42);
        let seq = run_tls_sequential(&wl, &cfg);
        let with = run_tls(&wl, TlsScheme::Bulk, &cfg);
        let without = run_tls(&wl, TlsScheme::BulkNoOverlap, &cfg);
        rows.push(vec![
            fmt_f(live_in_prob, 2),
            fmt_f(seq as f64 / with.cycles as f64, 2),
            fmt_f(seq as f64 / without.cycles as f64, 2),
            with.squashes.to_string(),
            without.squashes.to_string(),
            fmt_f(
                100.0 * (1.0 - with.cycles as f64 / without.cycles as f64),
                1,
            ),
        ]);
    }
    print_table(
        &[
            "LiveInProb",
            "Bulk speedup",
            "NoOverlap speedup",
            "Bulk squashes",
            "NoOverlap squashes",
            "Overlap gain (%)",
        ],
        &rows,
    );
    println!();
    println!("With no live-in consumption the two schemes coincide; as fine-grain");
    println!("parent→child sharing grows, NoOverlap squashes nearly every task at");
    println!("its parent's commit while the shadow signature keeps Bulk unharmed.");
}
