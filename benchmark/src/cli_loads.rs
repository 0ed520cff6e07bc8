//! The four workloads that spawn the `bulk` binary: `paper-bulk`,
//! `paper-exact`, `long-trace` and `observed`. Each is a list of command
//! lines per pass; the harness times every spawn from outside and checks
//! what it printed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bulk_repro::sig::crc64;
use bulk_repro::trace::profiles;

use crate::run::{Load, PassCost, RunData};
use crate::span::Tracer;
use crate::spec::{Machine, Spec};
use crate::sys;

/// XORed into the benchmark seed to get the trace seeds, as
/// `bulk_bench::runners::SEEDS` does for the paper's figures.
pub const SEED_DELTAS: [u64; 5] = [42, 43, 44, 45, 46];

/// One invocation of the binary and what it must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOp {
    /// What to run.
    pub spec: Spec,
    /// The arguments that say so.
    pub args: Vec<String>,
    /// Files the run must leave behind, non-empty.
    pub outputs: Vec<PathBuf>,
}

/// Renders a pass of specs as command lines writing into `work`.
fn ops(specs: Vec<Spec>, work: &Path) -> Vec<CliOp> {
    specs
        .into_iter()
        .enumerate()
        .map(|(idx, spec)| CliOp {
            args: spec.cli_args(work, idx),
            outputs: spec
                .outs
                .iter()
                .map(|kind| spec.out_path(work, idx, kind))
                .collect(),
            spec,
        })
        .collect()
}

/// Every app of the paper's evaluation under two schemes per machine, one
/// pass per trace seed: what `fig10`/`fig11` run, as 32 spawns.
fn paper(
    seed: u64,
    tm_schemes: [&'static str; 2],
    tls_schemes: [&'static str; 2],
) -> Vec<Vec<Spec>> {
    SEED_DELTAS
        .iter()
        .map(|d| {
            let s = seed ^ d;
            let tm = profiles::tm_profiles();
            let tls = profiles::tls_profiles();
            let tm_specs = tm
                .iter()
                .flat_map(|p| tm_schemes.map(|sc| Spec::sim(Machine::Tm, p.name, sc, s, None)));
            let tls_specs = tls
                .iter()
                .flat_map(|p| tls_schemes.map(|sc| Spec::sim(Machine::Tls, p.name, sc, s, None)));
            tm_specs.chain(tls_specs).collect()
        })
        .collect()
}

/// The pass lists of a CLI workload, or `None` if `name` is not one.
/// Pass `k` of a run executes list `k % len`.
pub fn plan(name: &str, seed: u64, work: &Path) -> Option<Vec<Vec<CliOp>>> {
    let s = seed ^ SEED_DELTAS[0];
    let tm = |app, scheme, len| Spec::sim(Machine::Tm, app, scheme, s, Some(len));
    let tls = |app, scheme, len| Spec::sim(Machine::Tls, app, scheme, s, Some(len));
    let observed = |spec: Spec, audit, outs: &[&'static str]| Spec {
        audit,
        outs: outs.to_vec(),
        ..spec
    };
    let passes = match name {
        "paper-bulk" => paper(seed, ["bulk", "bulk-partial"], ["bulk", "bulk-no-overlap"]),
        "paper-exact" => paper(seed, ["eager", "lazy"], ["eager", "lazy"]),
        "long-trace" => vec![vec![
            tm("sjbb2k", "bulk", 1200),
            tm("lu", "bulk", 500),
            tls("crafty", "bulk", 1300),
            tls("gzip", "bulk", 2500),
            tls("crafty", "lazy", 1300),
        ]],
        "observed" => {
            let all = ["metrics", "events", "trace"];
            vec![vec![
                observed(tm("sjbb2k", "bulk", 120), true, &all),
                observed(tls("crafty", "bulk", 800), true, &all),
                observed(tm("sjbb2k", "bulk", 600), false, &["metrics"]),
                observed(tm("sjbb2k", "bulk", 600), false, &["events"]),
                observed(tm("sjbb2k", "bulk", 600), false, &["trace"]),
            ]]
        }
        _ => return None,
    };
    Some(passes.into_iter().map(|specs| ops(specs, work)).collect())
}

/// The number after `key` on the report line that starts with it.
pub fn report_number(stdout: &str, key: &str) -> Option<u64> {
    stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// What the first run of each spec printed: checksum and simulated cycles.
/// Later runs of the same spec must match it byte for byte; two commits'
/// tables diff exactly when a change left the simulation alone.
pub type Fidelity = BTreeMap<String, (u64, u64)>;

/// Checks one finished spawn by self-consistency; `Err` names the check
/// that failed.
fn check(
    op: &CliOp,
    done: &sys::Finished,
    work: &Path,
    fidelity: &mut Fidelity,
) -> Result<(), String> {
    if done.usage.exit_code != Some(0) {
        return Err(format!("exit status {:?}", done.usage.exit_code));
    }
    // The scratch directory is named after this process; with it masked,
    // what a spec prints is the same in every run of every commit.
    let text = String::from_utf8_lossy(&done.stdout).replace(&work.display().to_string(), "<work>");
    let commits = op.spec.commits();
    match report_number(&text, "commits") {
        Some(c) if c == commits => {}
        other => return Err(format!("commits {other:?}, the trace dictates {commits}")),
    }
    if text.contains("violations") && !text.contains(" 0 violations") {
        return Err("auditor reported violations".to_string());
    }
    for f in &op.outputs {
        if std::fs::metadata(f).map_or(true, |m| m.len() == 0) {
            return Err(format!("{} missing or empty", f.display()));
        }
    }
    let seen = (
        crc64(text.as_bytes()),
        report_number(&text, "cycles").unwrap_or(0),
    );
    let label = op.spec.label();
    match fidelity.get(&label) {
        Some(first) if *first != seen => Err(format!(
            "stdout differs from an earlier pass ({first:x?} vs {seen:x?})"
        )),
        Some(_) => Ok(()),
        None => {
            fidelity.insert(label, seen);
            Ok(())
        }
    }
}

/// Runs one pass: every op spawned in order, timed and checked. Returns
/// the pass's cost; per-op samples and failures accumulate in `data`.
fn run_pass(
    bulk: &Path,
    work: &Path,
    ops: &[CliOp],
    data: &mut RunData,
    tracer: &mut Tracer,
) -> PassCost {
    let mut cost = PassCost::default();
    // About twenty calibration bursts a pass, spread between its spawns.
    let bursts_per_op = (20 / ops.len().max(1)).max(1);
    for op in ops {
        let label = op.spec.label();
        let done = tracer.span("cli", &label, |_| {
            sys::run_to_completion(bulk, &op.args, &work.join("stderr.txt"))
        });
        data.attempted += 1;
        match done {
            Ok(done) => {
                data.op_ms.push(done.wall.as_secs_f64() * 1e3);
                cost.wall_s += done.wall.as_secs_f64();
                cost.cpu_s += done.usage.cpu.as_secs_f64();
                data.peak_rss_mb = data.peak_rss_mb.max(done.usage.peak_rss_mb);
                match check(op, &done, work, &mut data.fidelity) {
                    Ok(()) => cost.commits += op.spec.commits(),
                    Err(why) => data.fail(format!("{label}: {why}")),
                }
            }
            Err(e) => data.fail(format!("{label}: spawn failed: {e}")),
        }
        data.calibrate(bursts_per_op);
    }
    cost
}

/// A spawning workload as a [`Load`]: set-up plans the passes from the seed
/// and runs the first as warm-up.
pub struct CliLoad<'a> {
    name: &'a str,
    seed: u64,
    bulk: &'a Path,
    work: &'a Path,
    passes: Vec<Vec<CliOp>>,
}

impl<'a> CliLoad<'a> {
    /// The CLI workload `name` for `seed`, spawning `bulk` and keeping its
    /// artifacts in `work`.
    pub fn new(name: &'a str, seed: u64, bulk: &'a Path, work: &'a Path) -> Self {
        let passes = plan(name, seed, work).expect("a CLI workload");
        CliLoad {
            name,
            seed,
            bulk,
            work,
            passes,
        }
    }
}

impl Load for CliLoad<'_> {
    fn ops_per_pass(&self) -> usize {
        self.passes[0].len()
    }

    /// 32 spawns a pass support p95 after seven passes; five a pass support
    /// p75 after eight.
    fn min_passes(&self) -> usize {
        if self.ops_per_pass() >= 32 {
            7
        } else {
            8
        }
    }

    fn setup(&mut self, data: &mut RunData, tracer: &mut Tracer) {
        self.passes = plan(self.name, self.seed, self.work).expect("a CLI workload");
        run_pass(self.bulk, self.work, &self.passes[0], data, tracer);
    }

    fn pass(&mut self, k: usize, data: &mut RunData, tracer: &mut Tracer) -> PassCost {
        run_pass(
            self.bulk,
            self.work,
            &self.passes[k % self.passes.len()],
            data,
            tracer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_passes_cover_every_app_twice_per_machine() {
        let passes = plan("paper-bulk", 42, Path::new("w")).unwrap();
        assert_eq!(passes.len(), SEED_DELTAS.len());
        for pass in &passes {
            assert_eq!(pass.len(), 2 * (7 + 9));
        }
        // 8 threads × 60 transactions; 400 tasks.
        assert_eq!(passes[0][0].spec.commits(), 480);
        assert_eq!(passes[0].last().unwrap().spec.commits(), 400);
        // Seed 42 XOR delta 42 is trace seed 0.
        assert!(passes[0][0]
            .args
            .ends_with(&["--seed".to_string(), "0".to_string()]));
    }

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for name in ["paper-bulk", "paper-exact", "long-trace", "observed"] {
            let a = plan(name, 7, Path::new("w")).unwrap();
            assert_eq!(a, plan(name, 7, Path::new("w")).unwrap(), "{name}");
            assert_ne!(a, plan(name, 8, Path::new("w")).unwrap(), "{name}");
            let labels: Vec<_> = a.iter().flatten().map(|o| o.spec.label()).collect();
            let mut unique = labels.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(labels.len(), unique.len(), "{name}: labels are unique");
        }
        assert!(plan("serve", 7, Path::new("w")).is_none());
    }

    #[test]
    fn report_numbers_parse_from_the_cli_layout() {
        let out = "TM run: app=x\n  commits            480\n  cycles             294040 (seq 1)\n";
        assert_eq!(report_number(out, "commits"), Some(480));
        assert_eq!(report_number(out, "cycles"), Some(294040));
        assert_eq!(report_number(out, "squashes"), None);
    }
}
