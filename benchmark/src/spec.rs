//! One run of one machine, described once and rendered three ways: as
//! `bulk tm|tls` arguments, as a `bulkd` job line, and as the same work
//! done in-process through the `bulk_repro` facade with a span around
//! every call into a layer.

use std::path::Path;
use std::sync::Arc;

use bulk_repro::obs::Obs;
use bulk_repro::par::{ParConfig, ParRuntime, Runtime};
use bulk_repro::sim::SimConfig;
use bulk_repro::tls::{run_tls_sequential, TlsMachine};
use bulk_repro::tm::TmMachine;
use bulk_repro::trace::profiles;

use crate::span::Tracer;

/// Which machine family a spec drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// `bulk tm`.
    Tm,
    /// `bulk tls`.
    Tls,
}

impl Machine {
    /// The subcommand and wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Machine::Tm => "tm",
            Machine::Tls => "tls",
        }
    }
}

/// One run: machine, app, scheme, trace seed, length and options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// TM or TLS.
    pub machine: Machine,
    /// Application profile name.
    pub app: &'static str,
    /// Scheme, by its kebab-case CLI name.
    pub scheme: &'static str,
    /// Trace seed.
    pub seed: u64,
    /// Transactions per thread (TM) or tasks (TLS); `None` is the
    /// paper-default length.
    pub len: Option<usize>,
    /// Run on the OS-thread runtime instead of the simulator.
    pub par: bool,
    /// Run the invariant auditor (`--audit`).
    pub audit: bool,
    /// Artifacts to write: any of `metrics`, `events`, `trace`.
    pub outs: Vec<&'static str>,
}

impl Spec {
    /// A plain simulator run.
    pub fn sim(
        machine: Machine,
        app: &'static str,
        scheme: &'static str,
        seed: u64,
        len: Option<usize>,
    ) -> Spec {
        Spec {
            machine,
            app,
            scheme,
            seed,
            len,
            par: false,
            audit: false,
            outs: Vec::new(),
        }
    }

    /// Commits the trace dictates: threads × transactions, or tasks.
    pub fn commits(&self) -> u64 {
        match self.machine {
            Machine::Tm => {
                let p = profiles::tm_profile(self.app).expect("catalog TM app");
                (p.threads * self.len.unwrap_or(p.txs_per_thread)) as u64
            }
            Machine::Tls => {
                let p = profiles::tls_profile(self.app).expect("catalog TLS app");
                self.len.unwrap_or(p.tasks) as u64
            }
        }
    }

    /// A name unique to the spec; runs with the same label must produce
    /// the same bytes.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}/{}/s{}",
            self.machine.as_str(),
            self.app,
            self.scheme,
            self.len.map_or("default".to_string(), |l| l.to_string()),
            self.seed
        );
        if self.par {
            s.push_str("/par");
        }
        if self.audit {
            s.push_str("/audit");
        }
        for o in &self.outs {
            s.push('+');
            s.push_str(o);
        }
        s
    }

    /// The path artifact `kind` of this spec goes to. Named after the
    /// spec's place in its pass so repeated passes print identical
    /// "written to" lines.
    pub fn out_path(&self, dir: &Path, idx: usize, kind: &str) -> std::path::PathBuf {
        dir.join(format!("op{idx}.{kind}"))
    }

    /// Arguments for the `bulk` binary.
    pub fn cli_args(&self, dir: &Path, idx: usize) -> Vec<String> {
        let mut args: Vec<String> = [
            self.machine.as_str(),
            "--app",
            self.app,
            "--scheme",
            self.scheme,
            "--seed",
        ]
        .map(String::from)
        .into();
        args.push(self.seed.to_string());
        if let Some(len) = self.len {
            let flag = if self.machine == Machine::Tm {
                "--txs"
            } else {
                "--tasks"
            };
            args.extend([flag.to_string(), len.to_string()]);
        }
        if self.par {
            args.extend(["--runtime".to_string(), "par".to_string()]);
        }
        if self.audit {
            args.push("--audit".to_string());
        }
        for kind in &self.outs {
            args.extend([
                format!("--{kind}-out"),
                self.out_path(dir, idx, kind).display().to_string(),
            ]);
        }
        args
    }

    /// The flat JSON object `bulkd` accepts on its ingest socket.
    pub fn job_line(&self) -> String {
        let mut s = format!(
            "{{\"machine\": \"{}\", \"app\": \"{}\", \"scheme\": \"{}\", \"seed\": {}, \"runtime\": \"{}\"",
            self.machine.as_str(),
            self.app,
            self.scheme,
            self.seed,
            if self.par { "par" } else { "sim" }
        );
        if let Some(len) = self.len {
            let key = if self.machine == Machine::Tm {
                "txs"
            } else {
                "tasks"
            };
            s.push_str(&format!(", \"{key}\": {len}"));
        }
        s.push('}');
        s
    }
}

/// What an in-process run of a spec produced.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Committed transactions or tasks.
    pub commits: u64,
    /// Squashes.
    pub squashes: u64,
    /// Simulated cycles (0 on the parallel runtime).
    pub cycles: u64,
    /// Auditor checks made.
    pub audit_checks: u64,
    /// Events recorded (0 without observability).
    pub events: usize,
    /// Causal spans recorded by the program (0 without observability).
    pub spans: usize,
}

/// Runs `spec` in-process the way the CLI and the daemon do, with a span
/// around every call into a layer: `trace` generates, `tm`/`tls`/`par`
/// run, `obs` serialises. `force_obs` attaches the observability bundle
/// even when no artifact is asked for (the daemon always does).
pub fn replay(spec: &Spec, force_obs: bool, tracer: &mut Tracer) -> Result<Replayed, String> {
    let obs = (force_obs || !spec.outs.is_empty()).then(|| Arc::new(Obs::new()));
    let mut out = Replayed::default();
    match spec.machine {
        Machine::Tm => {
            let mut p = profiles::tm_profile(spec.app).ok_or("unknown TM app")?;
            if let Some(len) = spec.len {
                p.txs_per_thread = len;
            }
            let scheme = spec.scheme.parse()?;
            let wl = tracer.span("trace", "tm_profile.generate", |_| p.generate(spec.seed));
            if spec.par {
                let rt = ParRuntime::new(ParConfig {
                    seed: spec.seed,
                    ..ParConfig::default()
                });
                let r = tracer
                    .span("par", "run_tm", |_| {
                        rt.run_tm(&wl, scheme, &SimConfig::tm_default())
                    })
                    .map_err(|e| e.to_string())?;
                (out.commits, out.squashes) = (r.commits, r.squashes);
            } else {
                let stats = tracer.span("tm", "TmMachine.run", |_| {
                    let mut m = TmMachine::try_new(&wl, scheme, &SimConfig::tm_default())
                        .map_err(|e| e.to_string())?;
                    if spec.audit {
                        m.enable_audit();
                    }
                    if let Some(o) = &obs {
                        m.attach_obs(Arc::clone(o));
                    }
                    m.try_run().map_err(|e| e.to_string())
                })?;
                if let Some(v) = stats.violations.first() {
                    return Err(format!("auditor: {v}"));
                }
                (out.commits, out.squashes, out.cycles, out.audit_checks) = (
                    stats.commits,
                    stats.squashes,
                    stats.cycles,
                    stats.audit_checks,
                );
            }
        }
        Machine::Tls => {
            let mut p = profiles::tls_profile(spec.app).ok_or("unknown TLS app")?;
            if let Some(len) = spec.len {
                p.tasks = len;
            }
            let scheme = spec.scheme.parse()?;
            let cfg = SimConfig::tls_default();
            let wl = tracer.span("trace", "tls_profile.generate", |_| p.generate(spec.seed));
            if spec.par {
                let rt = ParRuntime::new(ParConfig {
                    seed: spec.seed,
                    ..ParConfig::default()
                });
                let r = tracer
                    .span("par", "run_tls", |_| rt.run_tls(&wl, scheme, &cfg))
                    .map_err(|e| e.to_string())?;
                (out.commits, out.squashes) = (r.commits, r.squashes);
            } else {
                let stats = tracer.span("tls", "TlsMachine.run", |_| {
                    // The CLI reports speed-up over sequential execution,
                    // so it runs that first; the daemon does not.
                    if !force_obs {
                        std::hint::black_box(run_tls_sequential(&wl, &cfg));
                    }
                    let mut m =
                        TlsMachine::try_new(&wl, scheme, &cfg).map_err(|e| e.to_string())?;
                    if spec.audit {
                        m.enable_audit();
                    }
                    if let Some(o) = &obs {
                        m.attach_obs(Arc::clone(o));
                    }
                    m.try_run().map_err(|e| e.to_string())
                })?;
                if let Some(v) = stats.violations.first() {
                    return Err(format!("auditor: {v}"));
                }
                (out.commits, out.squashes, out.cycles, out.audit_checks) = (
                    stats.commits,
                    stats.squashes,
                    stats.cycles,
                    stats.audit_checks,
                );
            }
        }
    }
    if let Some(o) = &obs {
        out.events = o.events().len();
        out.spans = o.trace().len();
        // The daemon streams every event as a JSON line; the CLI writes
        // the artifacts that were asked for.
        if force_obs {
            tracer.span("obs", "events.to_jsonl", |_| {
                std::hint::black_box(o.events().to_jsonl())
            });
        }
        for kind in &spec.outs {
            tracer.span("obs", kind, |_| match *kind {
                "metrics" => std::hint::black_box(o.registry().to_json_indented("  ")).len(),
                "events" => std::hint::black_box(o.events().to_jsonl()).len(),
                _ => std::hint::black_box(o.trace().to_chrome_json()).len(),
            });
        }
    }
    if out.commits != spec.commits() {
        return Err(format!(
            "committed {}, the trace dictates {}",
            out.commits,
            spec.commits()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_repro::trace::jobspec::{JobRuntime, JobSpec};
    use std::time::Instant;

    #[test]
    fn a_spec_renders_as_cli_arguments_and_as_a_job_line() {
        let mut s = Spec::sim(Machine::Tls, "gzip", "bulk", 9, Some(50));
        s.audit = true;
        s.outs = vec!["metrics"];
        let args = s.cli_args(Path::new("w"), 3);
        assert_eq!(
            args.join(" "),
            "tls --app gzip --scheme bulk --seed 9 --tasks 50 --audit --metrics-out w/op3.metrics"
        );
        assert_eq!(s.commits(), 50);
        s.par = true;
        let parsed = JobSpec::parse(&s.job_line()).expect("the daemon's parser accepts it");
        assert_eq!(
            (parsed.seed, parsed.tasks, parsed.runtime),
            (9, Some(50), JobRuntime::Par)
        );
        assert_eq!(
            Spec::sim(Machine::Tm, "lu", "lazy", 1, None).commits(),
            8 * 60
        );
    }

    #[test]
    fn replay_runs_the_spec_and_spans_each_layer() {
        let mut tracer = Tracer::new(true, Instant::now());
        let mut s = Spec::sim(Machine::Tm, "sjbb2k", "bulk", 5, Some(4));
        s.audit = true;
        s.outs = vec!["events", "trace"];
        let r = replay(&s, false, &mut tracer).unwrap();
        assert_eq!(r.commits, 32);
        assert!(r.cycles > 0 && r.audit_checks > 0 && r.events > 0 && r.spans > 0);
        let layers: Vec<_> = tracer.spans().iter().map(|s| s.layer).collect();
        assert_eq!(layers, ["trace", "tm", "obs", "obs"]);
        // The same spec twice simulates the same cycles.
        assert_eq!(replay(&s, false, &mut tracer).unwrap().cycles, r.cycles);
    }
}
