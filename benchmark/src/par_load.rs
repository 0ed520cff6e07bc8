//! `par-cpu`: the OS-thread runtime driven in-process through the
//! `Runtime` trait with no compute dwell, so the bus log, replay and
//! dedup do the work and the simulator, CLI and observability do none.
//!
//! The CLI hard-wires eight TM threads, which on a small host measures the
//! scheduler; here both machines get `W = min(nproc, 4)` workers.

use std::collections::BTreeSet;
use std::time::Instant;

use bulk_repro::par::{ParConfig, ParRuntime, RunReport, Runtime};
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::TlsScheme;
use bulk_repro::tm::Scheme;
use bulk_repro::trace::{profiles, TlsWorkload, TmOp, TmWorkload};

use crate::cli_loads::SEED_DELTAS;
use crate::run::{Load, PassCost, RunData};
use crate::span::Tracer;
use crate::sys;

/// Commits per TM run, split evenly over the workers.
pub const TM_COMMITS: usize = 16_000;
/// Tasks per TLS run.
pub const TLS_TASKS: usize = 40_000;

const TM_APPS: [&str; 2] = ["sjbb2k", "lu"];
const TLS_APPS: [&str; 2] = ["crafty", "gzip"];

/// A TM profile regenerated for `threads` threads and `commits` commits.
pub fn tm_workload(app: &str, threads: usize, commits: usize, seed: u64) -> TmWorkload {
    let mut p = profiles::tm_profile(app).expect("catalog TM app");
    p.threads = threads;
    p.txs_per_thread = commits / threads;
    p.generate(seed)
}

/// A TLS profile regenerated with `tasks` tasks.
pub fn tls_workload(app: &str, tasks: usize, seed: u64) -> TlsWorkload {
    let mut p = profiles::tls_profile(app).expect("catalog TLS app");
    p.tasks = tasks;
    p.generate(seed)
}

/// The committed-order class a TM trace dictates: every thread commits
/// its outermost transactions in program order.
pub fn tm_identity(wl: &TmWorkload) -> BTreeSet<(u32, u64)> {
    let mut out = BTreeSet::new();
    for (t, thread) in wl.threads.iter().enumerate() {
        let (mut depth, mut ordinal) = (0usize, 0u64);
        for op in &thread.ops {
            match op {
                TmOp::Begin => depth += 1,
                TmOp::End => {
                    depth -= 1;
                    if depth == 0 {
                        out.insert((t as u32, ordinal));
                        ordinal += 1;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// The committed-order class of a TLS trace: every task commits once.
pub fn tls_identity(wl: &TlsWorkload) -> BTreeSet<(u32, u64)> {
    (0..wl.tasks.len() as u32).map(|t| (t, 0)).collect()
}

/// No sim oracle here (it is quadratic at 40 000 tasks): the report must
/// be auditor-clean and commit exactly the set the trace dictates.
pub fn check(r: &RunReport, identity: &BTreeSet<(u32, u64)>) -> Result<(), String> {
    if let Some(v) = r.violations.first() {
        return Err(format!("{} violation(s), first: {v}", r.violations.len()));
    }
    if r.commit_class() != *identity {
        return Err(format!(
            "committed {} of {} identities",
            r.commits,
            identity.len()
        ));
    }
    Ok(())
}

/// The `par-cpu` workload.
pub struct ParLoad {
    seed: u64,
    rt: ParRuntime,
    tm: Vec<(TmWorkload, BTreeSet<(u32, u64)>)>,
    tls: Vec<(TlsWorkload, BTreeSet<(u32, u64)>)>,
}

impl ParLoad {
    /// A load whose traces derive from `seed`.
    pub fn new(seed: u64) -> Self {
        let cfg = ParConfig {
            tls_workers: sys::workers(),
            compute_ns_per_kcycle: 0,
            seed,
            ..ParConfig::default()
        };
        ParLoad {
            seed,
            rt: ParRuntime::new(cfg),
            tm: Vec::new(),
            tls: Vec::new(),
        }
    }

    fn op(
        &self,
        label: &str,
        identity: &BTreeSet<(u32, u64)>,
        data: &mut RunData,
        tracer: &mut Tracer,
        cost: &mut PassCost,
        call: impl FnOnce() -> Result<RunReport, bulk_repro::par::RuntimeError>,
    ) {
        let (start, cpu) = (Instant::now(), sys::self_cpu());
        let result = tracer.span("par", label, |_| call());
        let wall = start.elapsed().as_secs_f64();
        cost.cpu_s += (sys::self_cpu() - cpu).as_secs_f64();
        data.attempted += 1;
        data.op_ms.push(wall * 1e3);
        cost.wall_s += wall;
        let checked = tracer.span("harness", "check", |_| match &result {
            Ok(r) => check(r, identity).map(|()| r.commits),
            Err(e) => Err(e.to_string()),
        });
        match checked {
            Ok(commits) => cost.commits += commits,
            Err(why) => data.fail(format!("{label}: {why}")),
        }
        data.calibrate(3);
    }
}

impl Load for ParLoad {
    fn ops_per_pass(&self) -> usize {
        2 * (TM_APPS.len() + TLS_APPS.len())
    }

    fn min_passes(&self) -> usize {
        5
    }

    fn setup(&mut self, data: &mut RunData, tracer: &mut Tracer) {
        let s = self.seed ^ SEED_DELTAS[0];
        let w = sys::workers();
        // Set-up starts from scratch: the previous traces go first, so two
        // generations never sit in memory together.
        self.tm.clear();
        self.tls.clear();
        tracer.span("trace", "generate", |_| {
            let with_identity = |wl: TmWorkload| {
                let identity = tm_identity(&wl);
                (wl, identity)
            };
            self.tm = TM_APPS
                .iter()
                .map(|app| with_identity(tm_workload(app, w, TM_COMMITS, s)))
                .collect();
            self.tls = TLS_APPS
                .iter()
                .map(|app| tls_workload(app, TLS_TASKS, s))
                .map(|wl| {
                    let identity = tls_identity(&wl);
                    (wl, identity)
                })
                .collect();
        });
        self.pass(0, data, tracer);
    }

    fn pass(&mut self, _k: usize, data: &mut RunData, tracer: &mut Tracer) -> PassCost {
        let mut cost = PassCost::default();
        let (tm_cfg, tls_cfg) = (SimConfig::tm_default(), SimConfig::tls_default());
        for (app, (wl, identity)) in TM_APPS.iter().zip(&self.tm) {
            for scheme in [Scheme::Bulk, Scheme::Lazy] {
                let label = format!("par/tm/{app}/{scheme}");
                self.op(&label, identity, data, tracer, &mut cost, || {
                    self.rt.run_tm(wl, scheme, &tm_cfg)
                });
            }
        }
        for (app, (wl, identity)) in TLS_APPS.iter().zip(&self.tls) {
            for scheme in [TlsScheme::Bulk, TlsScheme::Lazy] {
                let label = format!("par/tls/{app}/{scheme}");
                self.op(&label, identity, data, tracer, &mut cost, || {
                    self.rt.run_tls(wl, scheme, &tls_cfg)
                });
            }
        }
        // The peak of the first pass of a fresh process (284 MB ± 1 from run
        // to run). What the allocator's per-thread arenas retain over later
        // passes ranged from 293 to 618 MB for the same work, so it cannot
        // be held to a bound.
        if data.peak_rss_mb == 0.0 {
            data.peak_rss_mb = sys::self_peak_rss_mb();
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_follow_the_trace_shape() {
        let tm = tm_workload("sjbb2k", 2, 20, 1);
        assert_eq!(tm.threads.len(), 2);
        let id = tm_identity(&tm);
        // Nested transactions commit once, with their outermost End.
        assert_eq!(id.len(), 20);
        assert!(id.contains(&(1, 9)) && !id.contains(&(1, 10)));
        let tls = tls_workload("gzip", 30, 1);
        assert_eq!(tls_identity(&tls).len(), 30);
    }

    #[test]
    fn a_small_par_run_passes_its_own_check() {
        let wl = tm_workload("lu", 2, 40, 3);
        let rt = ParRuntime::new(ParConfig {
            tls_workers: 2,
            ..ParConfig::default()
        });
        let r = rt
            .run_tm(&wl, Scheme::Bulk, &SimConfig::tm_default())
            .unwrap();
        check(&r, &tm_identity(&wl)).unwrap();
        let mut short = tm_identity(&wl);
        short.pop_last();
        assert!(check(&r, &short).is_err());
    }
}
