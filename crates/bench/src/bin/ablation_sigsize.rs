//! Ablation: end-to-end impact of the signature configuration on TM
//! performance — the paper's closing claim that "signature configuration
//! is a key design parameter", measured on the running system rather than
//! on sampled disambiguations (complements `fig15`).

use bulk_bench::{fmt_f, print_table};
use bulk_sig::{table8_spec, BitPermutation, Granularity, SignatureConfig};
use bulk_sim::SimConfig;
use bulk_tm::{Scheme, TmMachine};
use bulk_trace::profiles;

fn main() {
    let cfg = SimConfig::tm_default();
    println!("Ablation — TM performance vs signature configuration (app: lu)\n");
    let p = profiles::tm_profile("lu").expect("profile");
    let wl = p.generate(42);

    // Exact Lazy as the reference point.
    let lazy = bulk_tm::run_tm(&wl, Scheme::Lazy, &cfg);

    let mut rows = Vec::new();
    for id in ["S1", "S4", "S9", "S12", "S14", "S17", "S19", "S23"] {
        let spec = table8_spec(id).expect("catalog id");
        let sig = SignatureConfig::from_spec(
            spec,
            BitPermutation::paper_tm(),
            Granularity::Line,
            64,
        );
        let stats = TmMachine::with_signature(&wl, Scheme::Bulk, &cfg, sig).run();
        rows.push(vec![
            id.to_string(),
            spec.full_size_bits().to_string(),
            stats.squashes.to_string(),
            stats.false_squashes.to_string(),
            fmt_f(100.0 * stats.false_squash_frac(), 1),
            fmt_f(lazy.cycles as f64 / stats.cycles as f64, 3),
        ]);
    }
    rows.push(vec![
        "Lazy".into(),
        "exact".into(),
        lazy.squashes.to_string(),
        "0".into(),
        "0.0".into(),
        "1.000".into(),
    ]);
    print_table(
        &["Config", "Bits", "Squashes", "False", "Sq(%)", "Speedup vs Lazy"],
        &rows,
    );
    println!();
    println!("Small signatures pay real performance for their aliasing;");
    println!("beyond ~2 Kbit (S14) the returns flatten — the paper's sweet spot.");
}
