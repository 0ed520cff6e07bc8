//! Ablation: partial rollback of nested transactions (§6.2.1) versus flat
//! Bulk, as transaction nesting becomes more common. The paper found the
//! benefit minor at its workloads' low nesting rates; this sweep shows
//! where the mechanism starts paying.

use bulk_bench::{fmt_f, print_table};
use bulk_sim::SimConfig;
use bulk_tm::{run_tm, Scheme};
use bulk_trace::profiles;

fn main() {
    let cfg = SimConfig::tm_default();
    println!("Ablation — partial rollback benefit vs nesting frequency (app: mc)\n");
    let base = profiles::tm_profile("mc").expect("profile");

    let mut rows = Vec::new();
    for nest_prob in [0.0, 0.12, 0.3, 0.6, 0.9] {
        let mut p = base.clone();
        p.nest_prob = nest_prob;
        let wl = p.generate(42);
        let flat = run_tm(&wl, Scheme::Bulk, &cfg);
        let partial = run_tm(&wl, Scheme::BulkPartial, &cfg);
        rows.push(vec![
            fmt_f(nest_prob, 2),
            flat.squashes.to_string(),
            partial.squashes.to_string(),
            partial.partial_rollbacks.to_string(),
            fmt_f(partial.sections_rolled_back as f64
                / partial.partial_rollbacks.max(1) as f64, 1),
            fmt_f(flat.cycles as f64 / partial.cycles as f64, 3),
        ]);
    }
    print_table(
        &[
            "NestProb",
            "Flat squashes",
            "Partial squashes",
            "Rollbacks",
            "Secs/rollback",
            "Partial speedup",
        ],
        &rows,
    );
    println!();
    println!("Partial rollback converts full squashes into section restarts; the");
    println!("gain tracks how often conflicts land in inner sections — minor at");
    println!("the paper's low nesting rates, growing with nesting frequency.");
}
