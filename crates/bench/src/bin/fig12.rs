//! Figure 12: the SPECjbb2000 code patterns where Eager suffers —
//! (a) no forward progress under naive Eager on transactional
//! read-modify-write contention, and (b) a squash that happens in Eager
//! but not in Lazy.

use bulk_bench::print_table;
use bulk_sim::SimConfig;
use bulk_tm::{run_tm, Scheme, TmMachine};
use bulk_trace::patterns::{fig12a_livelock, fig12b_eager_only_squash};

fn main() {
    let cfg = SimConfig::tm_default();

    println!("Figure 12(a) — two threads ld A / st A in a loop (50 iterations)\n");
    let wa = fig12a_livelock(50, 400);
    let mut rows = Vec::new();
    for scheme in [Scheme::EagerNaive, Scheme::Eager, Scheme::Lazy, Scheme::Bulk] {
        let stats = if scheme == Scheme::EagerNaive {
            let mut m = TmMachine::new(&wa, scheme, &cfg);
            m.set_squash_cap(5_000);
            m.run()
        } else {
            run_tm(&wa, scheme, &cfg)
        };
        rows.push(vec![
            scheme.to_string(),
            stats.commits.to_string(),
            stats.squashes.to_string(),
            stats.stalls.to_string(),
            if stats.livelocked { "LIVELOCK".into() } else { "ok".into() },
        ]);
    }
    print_table(&["Scheme", "Commits", "Squashes", "Stalls", "Progress"], &rows);
    println!(
        "\n  Naive Eager livelocks; the paper's fix (longer-running thread wins,\n  \
         other stalls) restores progress; Lazy/Bulk are immune.\n"
    );

    println!("Figure 12(b) — short reader tx vs long writer tx (10 iterations)\n");
    let wb = fig12b_eager_only_squash(10);
    let mut rows = Vec::new();
    for scheme in [Scheme::Eager, Scheme::Lazy, Scheme::Bulk] {
        let stats = run_tm(&wb, scheme, &cfg);
        rows.push(vec![
            scheme.to_string(),
            stats.commits.to_string(),
            stats.squashes.to_string(),
            stats.stalls.to_string(),
        ]);
    }
    print_table(&["Scheme", "Commits", "Squashes", "Stalls"], &rows);
    println!(
        "\n  Eager pays (squash or stall) on the conflict; Lazy commits the short\n  \
         reader before the writer's commit broadcast, avoiding the squash."
    );
}
