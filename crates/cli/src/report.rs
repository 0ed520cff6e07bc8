//! Human-readable run reports for the CLI.

use bulk_chaos::FaultStats;
use bulk_live::LiveStats;
use bulk_mem::MsgClass;
use bulk_par::{Job, ParStats, RunDetail, RunOptions, RunReport};
use bulk_tls::{TlsScheme, TlsStats};
use bulk_tm::{Scheme, TmStats};

/// Prints the summary that fits the report's substrate and machine.
/// `opts` are the options the run was armed with: the sim's resilience
/// section needs a fault plan, its liveness section counts re-deliveries
/// only under a liveness engine.
pub fn print_run(app: &str, job: &Job<'_>, r: &RunReport, opts: &RunOptions) {
    match (job, &r.detail) {
        (Job::Tm { scheme, .. }, RunDetail::Tm(s)) => print_tm(app, *scheme, s, opts),
        (Job::Tm { scheme, .. }, RunDetail::Par(s)) => print_par("TM", app, &scheme.to_string(), s),
        (Job::Tls { workload, scheme, cfg }, RunDetail::Tls(s)) => {
            let seq = bulk_tls::run_tls_sequential(workload, cfg);
            print_tls(app, *scheme, seq, s, opts);
        }
        (Job::Tls { scheme, .. }, RunDetail::Par(s)) => {
            print_par("TLS", app, &scheme.to_string(), s)
        }
        _ => unreachable!("a run reports the stats of its own machine"),
    }
}

fn print_tm(app: &str, scheme: Scheme, s: &TmStats, opts: &RunOptions) {
    println!("TM run: app={app} scheme={scheme} runtime=sim");
    println!("  commits            {}", s.commits);
    println!(
        "  squashes           {} ({} from aliasing, {:.1}%)",
        s.squashes,
        s.false_squashes,
        100.0 * s.false_squash_frac()
    );
    if s.partial_rollbacks > 0 {
        println!(
            "  partial rollbacks  {} ({} sections)",
            s.partial_rollbacks, s.sections_rolled_back
        );
    }
    if s.stalls > 0 {
        println!("  eager stalls       {}", s.stalls);
    }
    if s.livelocked {
        if s.liveness.watchdog_trips > 0 {
            println!("  *** LIVELOCKED (watchdog tripped) ***");
        } else {
            println!("  *** LIVELOCKED (squash cap hit) ***");
        }
    }
    println!(
        "  footprints         rd {:.1} / wr {:.1} lines per committed tx",
        s.avg_rd_set(),
        s.avg_wr_set()
    );
    println!("  safe writebacks    {:.2} per tx", s.safe_wb_per_commit());
    println!(
        "  overflow           {} spills, {} area accesses",
        s.overflow_spills, s.overflow_accesses
    );
    println!("  cycles             {}", s.cycles);
    print_bw("  ", &s.bw);
    print_resilience(
        opts.chaos.is_some(),
        &s.chaos,
        s.commit_retries,
        s.escalations,
        s.serialized_commits,
        s.audit_checks,
        s.violations.len(),
    );
    print_liveness(&s.liveness, &s.chaos, opts, s.liveness_violations.len());
}

fn print_tls(app: &str, scheme: TlsScheme, seq_cycles: u64, s: &TlsStats, opts: &RunOptions) {
    println!("TLS run: app={app} scheme={scheme} runtime=sim");
    println!("  commits            {}", s.commits);
    println!(
        "  squashes           {} ({} from aliasing, {:.1}%)",
        s.squashes,
        s.false_squashes,
        100.0 * s.false_squash_frac()
    );
    println!(
        "  footprints         rd {:.1} / wr {:.1} words per committed task",
        s.avg_rd_set(),
        s.avg_wr_set()
    );
    println!(
        "  set restriction    {:.2} safe WB/task, {:.1} wr-wr conflicts/1k tasks",
        s.safe_wb_per_task(),
        s.wr_wr_per_1k_tasks()
    );
    println!("  word merges        {}", s.line_merges);
    println!(
        "  cycles             {} (sequential {}, speedup {:.2}x)",
        s.cycles,
        seq_cycles,
        seq_cycles as f64 / s.cycles as f64
    );
    print_bw("  ", &s.bw);
    print_resilience(
        opts.chaos.is_some(),
        &s.chaos,
        s.commit_retries,
        s.escalations,
        s.serialized_commits,
        s.audit_checks,
        s.violations.len(),
    );
    print_liveness(&s.liveness, &s.chaos, opts, s.liveness_violations.len());
}

/// A parallel-runtime summary for either machine (`TM` / `TLS`). Wall
/// time replaces simulated cycles. A resilience section appears whenever
/// the supervisor survived worker deaths — crashes, respawns, adopted
/// slots and the recovery latency.
fn print_par(machine: &str, app: &str, scheme: &str, s: &ParStats) {
    println!("{machine} run: app={app} scheme={scheme} runtime=par");
    println!("  commits            {}", s.commits);
    println!(
        "  squashes           {} ({} from aliasing, {:.1}%)",
        s.squashes,
        s.false_squashes,
        if s.squashes > 0 { 100.0 * s.false_squashes as f64 / s.squashes as f64 } else { 0.0 }
    );
    println!(
        "  bus log            {} records ({} non-tx stores), {} claim retries, \
         {} slot-wait spins, {} parks",
        s.records, s.non_tx_stores, s.claim_retries, s.slot_wait_spins, s.parks
    );
    let per: Vec<String> = s.per_thread_commits.iter().map(u64::to_string).collect();
    println!("  commits per thread {}", per.join(" "));
    if s.worker_crashes > 0 {
        println!(
            "  resilience         {} worker crashes, {} respawns, {} adopted slots",
            s.worker_crashes, s.respawns, s.adopted_slots
        );
        println!("  recovery time      {:.3} ms", s.recovery_ns as f64 / 1e6);
    }
    if s.injected_stalls + s.delayed_publishes > 0 {
        println!(
            "  chaos injections   {} stalls, {} delayed publishes",
            s.injected_stalls, s.delayed_publishes
        );
    }
    println!("  wall time          {:.3} ms", s.wall_ns as f64 / 1e6);
    println!("  audit              {} checks, {} violations", s.audit_checks, s.violations.len());
}

/// Liveness-engine section: printed only when the engine recorded
/// anything (the stats are all zeros unless it was armed) or an armed
/// engine's receivers skipped a re-delivery (a duplicate or a crash).
fn print_liveness(l: &LiveStats, chaos: &FaultStats, opts: &RunOptions, violations: usize) {
    let redelivered = chaos.duplicated_broadcasts + chaos.arbiter_crashes > 0;
    let armed = opts.watchdog_ticks.is_some();
    if *l == LiveStats::default() && violations == 0 && !(armed && redelivered) {
        return;
    }
    println!(
        "  liveness           {} backoff waits ({} cycles, {} storm widenings), \
         {} watchdog trips",
        l.backoff_waits, l.backoff_cycles, l.storm_widenings, l.watchdog_trips
    );
    if l.checkpoints > 0 {
        println!("  checkpoints        {} captured", l.checkpoints);
    }
}

/// Chaos/audit section. The fault and degradation lines belong to chaos
/// runs: without an armed FaultPlan they would report stale zeros (or
/// ordinary escalations dressed up as resilience data), so they are gated
/// on `chaos_active`. The audit line stands on its own whenever the
/// auditor ran.
fn print_resilience(
    chaos_active: bool,
    chaos: &FaultStats,
    retries: u64,
    escalations: u64,
    serialized: u64,
    audit_checks: u64,
    violations: usize,
) {
    if chaos_active && chaos.total_injected() > 0 {
        println!(
            "  chaos faults       {} ({} denials, {} delays, {} dups, \
             {} corruptions [{} caught], {} ctx switches, {} evictions)",
            chaos.total_injected(),
            chaos.denials,
            chaos.broadcast_delays,
            chaos.duplicated_broadcasts,
            chaos.corruptions_injected,
            chaos.corruptions_detected,
            chaos.forced_context_switches,
            chaos.forced_evictions
        );
    }
    if chaos_active && retries + escalations + serialized > 0 {
        println!(
            "  degradation        {retries} commit retries, {escalations} escalations, \
             {serialized} serialized commits"
        );
    }
    if audit_checks > 0 {
        println!("  audit              {audit_checks} checks, {violations} violations");
    }
}

fn print_bw(indent: &str, bw: &bulk_mem::BandwidthStats) {
    let parts: Vec<String> = MsgClass::ALL
        .iter()
        .map(|c| format!("{c}={}", human_bytes(bw.bytes(*c))))
        .collect();
    println!("{indent}traffic            {}", parts.join("  "));
    println!(
        "{indent}commit bandwidth   {} in {} broadcasts",
        human_bytes(bw.commit_bytes()),
        bw.commit_count()
    );
}

fn human_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1}MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1}KB", b as f64 / 1e3)
    } else {
        format!("{b}B")
    }
}

/// Prints the `--metrics` section: squash attribution, invalidation
/// overshoot and the full registry contents, for the machine under
/// `prefix` (`"tm."`, `"tls."`, or `"par."` for either machine on real
/// threads). `runtime` names the substrate that produced the block, so
/// mixed-runtime transcripts stay unambiguous.
pub fn print_metrics(reg: &bulk_obs::Registry, prefix: &str, runtime: &str) {
    let c = |name: &str| reg.counter_value(&format!("{prefix}{name}"));
    let total = c("squashes");
    let tc = c("squash.true_conflict");
    let aliasing = c("squash.aliasing");
    println!("metrics ({}, runtime={runtime}):", prefix.trim_end_matches('.'));
    let share = if total > 0 { 100.0 * aliasing as f64 / total as f64 } else { 0.0 };
    println!(
        "  squash attribution {total} total = {tc} true-conflict + {aliasing} aliasing ({share:.1}%)"
    );
    let inv = c("invalidate.lines");
    if inv > 0 {
        println!(
            "  bulk invalidation  {} lines = {} exact + {} overshoot",
            inv,
            c("invalidate.exact"),
            c("invalidate.overshoot")
        );
    }
    let verdicts = c("verdict.true_positive")
        + c("verdict.false_positive")
        + c("verdict.true_negative")
        + c("verdict.false_negative");
    if verdicts > 0 {
        println!(
            "  verdicts           {} TP, {} FP, {} TN, {} FN (vs exact oracle)",
            c("verdict.true_positive"),
            c("verdict.false_positive"),
            c("verdict.true_negative"),
            c("verdict.false_negative")
        );
    }
    println!("  counters:");
    for (name, value) in reg.counters() {
        println!("    {name:<34} {value}");
    }
    let gauges = reg.gauges();
    if !gauges.is_empty() {
        println!("  gauges:");
        for (name, value) in gauges {
            println!("    {name:<34} {value}");
        }
    }
    let hists = reg.histograms();
    if let Some((_, h)) = hists
        .iter()
        .find(|(name, _)| name == &format!("{prefix}commit.latency_cycles"))
    {
        if let (Some(p50), Some(p95), Some(p99)) =
            (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
        {
            println!(
                "  commit latency     p50={p50} p95={p95} p99={p99} cycles \
                 (upper bucket edges, n={})",
                h.count()
            );
        }
    }
    if !hists.is_empty() {
        println!("  histograms:");
        for (name, h) in hists {
            let mean = if h.count() > 0 { h.sum() as f64 / h.count() as f64 } else { 0.0 };
            println!(
                "    {name:<34} n={} sum={} mean={mean:.1}",
                h.count(),
                h.sum()
            );
        }
    }
}

/// Prints the cycle-accounting breakdown (the paper's Fig. 13 categories)
/// from the `{prefix}cycles.*` counters published by the trace reducer.
/// Silent when tracing produced no accounting (total is zero).
pub fn print_cycle_breakdown(reg: &bulk_obs::Registry, prefix: &str) {
    let c = |name: &str| reg.counter_value(&format!("{prefix}cycles.{name}"));
    let total = c("total");
    if total == 0 {
        return;
    }
    println!("  cycle breakdown (per-thread timelines, {total} cycles):");
    let pct = |v: u64| 100.0 * v as f64 / total as f64;
    for name in ["useful", "squashed", "commit", "stall", "overhead", "other"] {
        let v = c(name);
        println!("    {name:<10} {v:>12}  {:5.1}%", pct(v));
    }
    let bus = c("commit_bus");
    if bus > 0 {
        println!("    {:<10} {bus:>12}  (bus lane, not part of the conservation sum)", "bus");
    }
    let viol = c("audit_violations");
    if viol > 0 {
        println!("    *** {viol} cycle-conservation violations ***");
    }
}

/// Prints the event-log drop line of the `--metrics` report: how many
/// records the bounded ring retained and how many it discarded.
pub fn print_event_drops(events: &bulk_obs::EventLog) {
    println!(
        "  events.dropped     {} (retained {})",
        events.dropped(),
        events.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(9_999), "9999B");
        assert_eq!(human_bytes(20_000), "20.0KB");
        assert_eq!(human_bytes(12_000_000), "12.0MB");
    }

    #[test]
    fn reports_do_not_panic() {
        print_tm("t", Scheme::Bulk, &TmStats::default(), &RunOptions::default());
        let chaos = RunOptions { chaos: Some(1), ..RunOptions::default() };
        print_tls("t", TlsScheme::Bulk, 1, &TlsStats::default(), &chaos);
        let reg = bulk_obs::Registry::new();
        reg.counter("tm.squashes").add(3);
        reg.counter("tm.squash.true_conflict").add(2);
        reg.counter("tm.squash.aliasing").add(1);
        print_metrics(&reg, "tm.", "sim");
    }

    #[test]
    fn par_report_prints() {
        use bulk_par::{conflict_light_tm, ParRuntime, Runtime};
        use bulk_sim::SimConfig;

        let wl = conflict_light_tm(2, 4, 1, 0);
        let cfg = SimConfig::tm_default();
        let r = ParRuntime::default().run_tm(&wl, Scheme::Bulk, &cfg).unwrap();
        let job = Job::Tm { workload: std::borrow::Cow::Borrowed(&wl), scheme: Scheme::Bulk, cfg };
        print_run("conflict_light", &job, &r, &RunOptions::default());
    }

    #[test]
    fn cycle_breakdown_prints_when_populated() {
        let reg = bulk_obs::Registry::new();
        print_cycle_breakdown(&reg, "tm."); // silent on empty totals
        reg.counter("tm.cycles.total").add(1000);
        reg.counter("tm.cycles.useful").add(600);
        reg.counter("tm.cycles.commit").add(400);
        print_cycle_breakdown(&reg, "tm.");
        print_event_drops(&bulk_obs::EventLog::new());
    }
}
