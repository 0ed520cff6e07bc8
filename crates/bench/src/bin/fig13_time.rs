//! Figure 13 (time view): where the cycles go, per application, from the
//! cycle-accounting profiler — the trace-derived split of every thread's
//! timeline into useful work, squashed work, commit, stall/backoff,
//! protocol overhead and idle remainder.
//!
//! The paper's Fig. 13 breaks down *bandwidth*; this companion breaks
//! down *time* using the causal span trace (`--trace-out` in the CLI),
//! so squash-heavy applications show their re-execution tax directly.

use std::sync::Arc;

use bulk_bench::{fmt_f, print_table};
use bulk_obs::{CycleBreakdown, Obs};
use bulk_sim::SimConfig;
use bulk_tls::{run_tls_observed, TlsScheme};
use bulk_tm::{run_tm_observed, Scheme};
use bulk_trace::profiles;

fn breakdown(obs: &Obs, prefix: &str) -> CycleBreakdown {
    let c = |n: &str| obs.registry().counter_value(&format!("{prefix}cycles.{n}"));
    CycleBreakdown {
        useful: c("useful"),
        squashed: c("squashed"),
        commit: c("commit"),
        stall: c("stall"),
        overhead: c("overhead"),
        other: c("other"),
        commit_bus: c("commit_bus"),
        total: c("total"),
        violations: Vec::new(),
    }
}

fn row(name: &str, machine: &str, b: &CycleBreakdown) -> Vec<String> {
    let pct = |v: u64| fmt_f(100.0 * v as f64 / b.total.max(1) as f64, 1);
    vec![
        name.to_string(),
        machine.to_string(),
        pct(b.useful),
        pct(b.squashed),
        pct(b.commit),
        pct(b.stall),
        pct(b.overhead),
        pct(b.other),
        b.total.to_string(),
    ]
}

fn main() {
    println!("Figure 13 (time) — cycle breakdown per app under Bulk, % of all thread cycles\n");
    let mut rows = Vec::new();
    let tm_cfg = SimConfig::tm_default();
    for p in profiles::tm_profiles() {
        let obs = Arc::new(Obs::new());
        run_tm_observed(&p.generate(42), Scheme::Bulk, &tm_cfg, Arc::clone(&obs));
        let b = breakdown(&obs, "tm.");
        assert!(b.conserves(), "{}: cycle accounting must conserve", p.name);
        rows.push(row(p.name, "TM", &b));
    }
    let tls_cfg = SimConfig::tls_default();
    for p in profiles::tls_profiles() {
        let obs = Arc::new(Obs::new());
        run_tls_observed(&p.generate(42), TlsScheme::Bulk, &tls_cfg, Arc::clone(&obs));
        let b = breakdown(&obs, "tls.");
        assert!(b.conserves(), "{}: cycle accounting must conserve", p.name);
        rows.push(row(p.name, "TLS", &b));
    }
    print_table(
        &["App", "Mach", "Useful", "Squash", "Commit", "Stall", "Ovhd", "Other", "Cycles"],
        &rows,
    );
    println!();
    println!("Conservation: the six columns sum to 100% of every app's thread cycles.");
}
