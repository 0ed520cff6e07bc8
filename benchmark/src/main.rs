//! `ledger` — the performance ledger of the Bulk reproduction: six named
//! workloads, end-to-end metrics measured from outside the program,
//! per-layer metrics measured through the `bulk_repro` facade, and checks
//! on every output. `benchmark/README.md` is the glossary.
//!
//! Run through `benchmark/run.sh`, which builds `bulk` and this harness
//! into one target directory first.

mod calib;
mod cli_loads;
mod layers;
mod par_load;
mod report;
mod run;
mod serve;
mod span;
mod spec;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Load, Metric, RunData};
use span::Tracer;

/// Name and reason of every workload, as in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("paper-bulk", "every paper app under the signature schemes: sig and core disambiguate, short runs show cli start-up and trace generation"),
    ("paper-exact", "the same apps and seeds under eager and lazy: no signatures, so a sig or bdm change must not move it"),
    ("long-trace", "few long runs: history, caches and overflow grow, start-up vanishes, the superlinear TLS term dominates"),
    ("observed", "audit plus metrics, events and trace output: chaos::Auditor and obs do the work they do in no other workload"),
    ("par-cpu", "the OS-thread runtime in-process with no compute dwell: bus log, replay and dedup, no sim, cli or obs"),
    ("serve", "bulkd over its wire protocol, closed loop: jobspec parsing, event streaming and the Prometheus encoder"),
];

const USAGE: &str = "\
usage: run.sh [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]
              [--check-repeat <runs>] [--smoke]

  --workload      one of the six workloads; without it, all six in turn
  --seed          every input derives from it (default 42)
  --seconds       how long the timed passes of one workload last (default 12)
  --trace 1       per-layer metrics and layer self-time shares, spans written as JSONL
  --check-repeat  two sets of <runs> end-to-end runs per workload on this build,
                  compared with the bounds; exits nonzero on a disagreement
  --smoke         one pass per workload, no set-up repeats: a seconds-long wiring check

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Exit status is nonzero when an operation failed a check.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 12.0,
        trace: false,
        check_repeat: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)? as f64,
            "--trace" => a.trace = number(value()?)? != 0,
            "--check-repeat" => a.check_repeat = Some(number(value()?)?.max(2) as usize),
            "--smoke" => a.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Where the binary under test and the benchmark's files live: next to
/// this executable, inside the checkout's target directory.
pub struct Site {
    /// The `bulk` binary `run.sh` built beside the harness.
    pub bulk: PathBuf,
    /// Scratch directory of this process (artifacts, address file,
    /// stderr), created for a workload run and removed when it ends.
    pub work: PathBuf,
    /// Where reports and spans are kept.
    pub reports: PathBuf,
}

fn site() -> Result<Site, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let bulk = dir.join("bulk");
    if !bulk.is_file() {
        return Err(format!(
            "{} is missing; run benchmark/run.sh, which builds it",
            bulk.display()
        ));
    }
    let reports = dir.join("ledger-work");
    let work = reports.join(format!("run-{}", std::process::id()));
    Ok(Site {
        bulk,
        work,
        reports,
    })
}

/// The workload `name` as something the run loop can drive.
pub fn load_for<'a>(name: &'a str, seed: u64, site: &'a Site) -> Box<dyn Load + 'a> {
    match name {
        "par-cpu" => Box::new(par_load::ParLoad::new(seed)),
        "serve" => Box::new(serve::ServeLoad::new(&site.bulk, &site.work, seed)),
        _ => Box::new(cli_loads::CliLoad::new(name, seed, &site.bulk, &site.work)),
    }
}

/// One finished workload run.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// What the run accumulated.
    pub data: RunData,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The percentile `op_tail_ms` stands for in this workload.
    pub tail: u32,
}

/// Runs one workload end to end, tracing off.
pub fn run_end_to_end(
    name: &'static str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    site: &Site,
) -> Outcome {
    let mut load = load_for(name, seed, site);
    let tail = run::tail_of(load.as_ref());
    let (repeats, min_passes) = if smoke {
        (1, 1)
    } else {
        (run::SETUP_REPEATS, load.min_passes())
    };
    let mut tracer = Tracer::new(false, Instant::now());
    let data = run::run(load.as_mut(), seconds, repeats, min_passes, &mut tracer);
    let metrics = run::end_to_end(&data, tail);
    Outcome {
        workload: name,
        data,
        metrics,
        tail,
    }
}

fn static_name(name: &str) -> &'static str {
    WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("validated by parse_args")
        .0
}

/// Runs this executable again with `args`, one workload per process, the
/// way the benchmark driver runs it: a workload never inherits the memory
/// or the warmed state of the one before. Returns the child's standard
/// output, or why there is none.
pub fn run_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the ledger again: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if text
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\""))
    {
        Ok(text)
    } else {
        Err(format!(
            "no result line (exit status {:?})",
            out.status.code()
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let site = match site() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = sys::fingerprint();
    report::print_fingerprint(&fingerprint, args.seed, args.seconds);
    let names: Vec<&'static str> = match &args.workload {
        Some(w) => vec![static_name(w)],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    if let Some(runs) = args.check_repeat {
        return report::check_repeat(&names, runs, args.seed, args.seconds);
    }
    let Some(name) = args.workload.as_deref().map(static_name) else {
        // All six in turn, each in a process of its own.
        let mut failed = false;
        for name in names {
            let mut child: Vec<String> = vec!["--workload".into(), name.into()];
            child.extend(argv.iter().cloned());
            match run_self(&child) {
                Ok(text) => {
                    // The host block was printed once already.
                    print!("{}", &text[text.find("\n== ").map_or(0, |i| i + 1)..]);
                    failed |= !text
                        .lines()
                        .last()
                        .is_some_and(|l| l.starts_with("{\"correct\": true"));
                }
                Err(why) => {
                    println!("\n== {name} ==\n  FAILED {why}");
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    };

    if let Err(e) = std::fs::create_dir_all(&site.work) {
        eprintln!("error: {}: {e}", site.work.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        layers::run_traced(name, args.seed, args.seconds, &site)
    } else {
        let seconds = if args.smoke { 0.0 } else { args.seconds };
        run_end_to_end(name, args.seed, seconds, args.smoke, &site)
    };
    let _ = std::fs::remove_dir_all(&site.work);
    report::print_outcome(&outcome, args.trace);
    let mode = if args.trace { "traced" } else { "end-to-end" };
    report::write_report(
        &site.reports,
        mode,
        &fingerprint,
        args.seed,
        args.seconds,
        &outcome,
    );
    println!(
        "{}",
        report::result_line(
            outcome.data.attempted,
            outcome.data.failed,
            &outcome.metrics
        )
    );
    if outcome.data.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
