//! `bulk` — command-line driver for the Bulk Disambiguation reproduction.
//!
//! Run `bulk help` for usage. The driver can run any application profile
//! under any scheme, dump/replay traces, list the catalogs and sweep
//! signature configurations.

mod args;
mod report;

use std::borrow::Cow;
use std::fmt::Display;
use std::process::ExitCode;
use std::sync::Arc;

use args::{parse, BulkdArgs, Command, ReplayArgs, RunArgs, USAGE};
use bulk_obs::Obs;
use bulk_par::{runtime_for, Job, JobPlan, RunDetail, RunOptions, Runtime, SimRuntime};
use bulk_sig::{table8, table8_spec, BitPermutation, Granularity, SignatureConfig};
use bulk_sim::SimConfig;
use bulk_trace::jobspec::{JobRuntime, JobSpec, Machine};
use bulk_trace::{io, profiles};

/// Puts `SIGPIPE` back to its default disposition. The Rust runtime
/// ignores it before `main`, which turns a reader that went away (`bulk
/// list | head -1`) into an `EPIPE` that every `println!` here would panic
/// on; with the default, the process ends quietly like any Unix filter.
/// `signal` is declared by hand: `std` already links libc, and the
/// repository builds with no registry crates.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` with `SIG_DFL` installs no handler code, so nothing
    // of this program runs in signal context; it is called once, before
    // any other thread exists.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(cmd) => {
            // The daemon keeps the runtime's setting: a client that hangs
            // up must stay a write error on its connection.
            #[cfg(unix)]
            if !matches!(cmd, Command::Bulkd(_)) {
                restore_default_sigpipe();
            }
            match run(cmd) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List => {
            list();
            Ok(())
        }
        Command::Run(a) => run_job(a),
        Command::Replay(a) => replay(a),
        Command::SweepSig { app, seed } => sweep_sig(&app, seed),
        Command::Bulkd(a) => run_bulkd(a),
        Command::Submit { connect, spec } => submit(&connect, &spec),
        Command::Status { connect } => {
            let line = bulkd::client::control(&connect, "status").map_err(|e| e.to_string())?;
            println!("{line}");
            Ok(())
        }
        Command::Shutdown { connect } => {
            let line = bulkd::client::control(&connect, "shutdown").map_err(|e| e.to_string())?;
            println!("{line}");
            Ok(())
        }
        Command::Scrape { connect, check } => scrape(&connect, check),
    }
}

/// Runs the telemetry daemon in the foreground until a `shutdown`
/// control command arrives on the ingest socket (or the process is
/// killed). `--addr-file` publishes the bound addresses for scripts that
/// listen on port 0.
fn run_bulkd(a: BulkdArgs) -> Result<(), String> {
    let mut cfg = bulkd::DaemonConfig {
        listen: a.listen,
        http: a.http,
        max_jobs: a.max_jobs.max(1) as usize,
        default_timeout_ms: a.job_timeout_ms,
        ..bulkd::DaemonConfig::default()
    };
    if a.event_capacity > 0 {
        cfg.event_capacity = a.event_capacity as usize;
    }
    let handle = bulkd::spawn(cfg).map_err(|e| format!("bulkd: {e}"))?;
    println!("bulkd: ingest on {}", handle.ingest_addr());
    println!("bulkd: metrics on http://{}/metrics", handle.http_addr());
    if let Some(path) = &a.addr_file {
        std::fs::write(path, format!("{}\n{}\n", handle.ingest_addr(), handle.http_addr()))
            .map_err(|e| format!("--addr-file {path}: {e}"))?;
    }
    handle.wait();
    println!("bulkd: stopped");
    Ok(())
}

/// Submits one job spec and relays the daemon's stream to stdout. Exits
/// nonzero when the job fails (typed error or rejection).
fn submit(connect: &str, spec: &str) -> Result<(), String> {
    let sub = bulkd::client::submit_spec(connect, spec).map_err(|e| e.to_string())?;
    for line in &sub.lines {
        println!("{line}");
    }
    if sub.ok() {
        Ok(())
    } else {
        Err(format!("job did not complete: {}", sub.last()))
    }
}

/// Fetches `/metrics` and prints it; with `check`, also validates the
/// exposition format (families declared, cumulative buckets, `+Inf`
/// consistency) and reports the family/sample counts on stderr.
fn scrape(connect: &str, check: bool) -> Result<(), String> {
    let body = bulkd::client::scrape(connect).map_err(|e| e.to_string())?;
    print!("{body}");
    if check {
        let (families, samples) = bulk_obs::prometheus::validate(&body)
            .map_err(|e| format!("exposition invalid: {e}"))?;
        eprintln!("scrape OK: {families} families, {samples} samples");
    }
    Ok(())
}

fn list() {
    println!("TM applications (Table 4 stand-ins):");
    for p in profiles::tm_profiles() {
        println!(
            "  {:<8} rd={:<5} wr={:<5} threads={}",
            p.name, p.rd_lines, p.wr_lines, p.threads
        );
    }
    println!("\nTLS applications (SPECint2000 stand-ins):");
    for p in profiles::tls_profiles() {
        println!(
            "  {:<8} rd={:<6} wr={:<5} tasks={}",
            p.name, p.rd_words, p.wr_words, p.tasks
        );
    }
    println!("\nTM schemes:  eager-naive eager lazy bulk bulk-partial");
    println!("TLS schemes: eager lazy bulk bulk-no-overlap");
    println!("\nSignature catalog (Table 8):");
    for s in table8() {
        println!("  {:<4} {:>6} bits  chunks {:?}", s.id, s.full_size_bits(), s.chunks);
    }
}

fn signature(id: &str) -> Result<SignatureConfig, String> {
    let spec = table8_spec(id).ok_or_else(|| format!("unknown signature `{id}`"))?;
    let cfg = SignatureConfig::from_spec(spec, BitPermutation::paper_tm(), Granularity::Line, 64);
    Ok(cfg)
}

/// The fault seed for a chaos run: `BULK_CHAOS_SEED` if set (replaying a
/// reported failure), the workload seed otherwise.
fn chaos_seed(default: u64) -> Result<u64, String> {
    match std::env::var("BULK_CHAOS_SEED") {
        Ok(v) => v.parse().map_err(|_| format!("BULK_CHAOS_SEED: bad number `{v}`")),
        Err(_) => Ok(default),
    }
}

/// Fails the run (nonzero exit) if it finished with violations of
/// `what` kind — the auditor's invariants, or the watchdog's diagnosis
/// (which carries the detected squash cycle for livelocks). A chaos run
/// names the fault seed that replays it.
fn check<V: Display>(what: &str, violations: &[V], chaos: Option<u64>) -> Result<(), String> {
    if violations.is_empty() {
        return Ok(());
    }
    for v in violations {
        eprintln!("{v}");
    }
    Err(format!("{} {what} violation(s){}", violations.len(), replay_hint(chaos)))
}

/// The chaos replay hint: a violation, an unrecoverable worker death or
/// a tripped watchdog is only useful if it can be replayed.
fn replay_hint(chaos: Option<u64>) -> String {
    chaos.map_or(String::new(), |seed| format!("; replay with BULK_CHAOS_SEED={seed}"))
}

/// `bulk tm` / `bulk tls`: resolves the spec, generates (and dumps) the
/// trace, runs it on the substrate the spec names, prints and writes.
/// What the flags arm is [`RunOptions`]' business, not this function's.
fn run_job(a: RunArgs) -> Result<(), String> {
    let spec = &a.spec;
    if spec.runtime == JobRuntime::Par {
        reject_sim_only_flags(&a)?;
    }
    let job = JobPlan::resolve(spec).map_err(|e| e.to_string())?.generate(spec.seed);
    if let Some(path) = &a.dump_trace {
        let text = match &job {
            Job::Tm { workload, .. } => io::tm_to_string(workload),
            Job::Tls { workload, .. } => io::tls_to_string(workload),
        };
        std::fs::write(path, text).map_err(|e| e.to_string())?;
        println!("trace written to {path}");
    }
    let sig = a.sig.as_deref().map(signature).transpose()?;
    let chaos = if a.chaos { Some(chaos_seed(spec.seed)?) } else { None };
    if let Some(s) = chaos {
        println!("chaos: fault seed {s} (replay with BULK_CHAOS_SEED={s})");
    }
    // One bundle when any of the four observability flags asked for one.
    let obs = (a.metrics || a.events_out.is_some() || a.metrics_out.is_some() || a.trace_out.is_some())
        .then(|| Arc::new(Obs::new()));
    let opts = RunOptions { sig, audit: a.audit, chaos, watchdog_ticks: a.watchdog_ticks, obs };
    let r = runtime_for(spec)
        .run(&job, &opts)
        .map_err(|e| format!("{e}{}", replay_hint(chaos)))?;
    report::print_run(&spec.app, &job, &r, a.chaos);
    if let Some(obs) = &opts.obs {
        finish_obs(obs, &a)?;
    }
    check("invariant", &r.violations, chaos)?;
    check("liveness", &r.liveness_violations, None)
}

/// Rejects the simulator-only flags under `--runtime par`: the
/// signature sweep is the sim's (par hard-codes S14), and watchdog ticks
/// and the event/span pipelines all hook the simulated clock, which real
/// threads do not have. Failing loudly beats silently dropping what the
/// user asked for. (`--chaos` is *not* sim-only: under par it arms the
/// real-thread worker-fault preset instead.)
fn reject_sim_only_flags(a: &RunArgs) -> Result<(), String> {
    let set = [
        ("--sig", a.sig.is_some()),
        ("--watchdog-ticks", a.watchdog_ticks.is_some()),
        ("--events-out", a.events_out.is_some()),
        ("--trace-out", a.trace_out.is_some()),
    ];
    match set.iter().find(|(_, given)| *given) {
        Some((flag, _)) => Err(format!(
            "{}: {flag} hooks the simulated machine and is sim-only; \
             drop it or use --runtime sim",
            a.spec.machine.as_str()
        )),
        None => Ok(()),
    }
}

/// Prints the metrics section and/or writes the event JSONL, the
/// registry JSON and the Chrome trace-event JSON, as requested. The
/// registry JSON is wrapped as `{"runtime": ..., "seed": ..., "metrics":
/// {...}}` so every metrics artifact names the substrate and workload
/// seed that produced it.
fn finish_obs(o: &Obs, a: &RunArgs) -> Result<(), String> {
    let runtime = a.spec.runtime.as_str();
    let prefix = match (a.spec.runtime, a.spec.machine) {
        (JobRuntime::Par, _) => "par.",
        (JobRuntime::Sim, Machine::Tm) => "tm.",
        (JobRuntime::Sim, Machine::Tls) => "tls.",
    };
    if a.metrics {
        report::print_metrics(o.registry(), prefix, runtime);
        report::print_cycle_breakdown(o.registry(), prefix);
        report::print_event_drops(o.events());
    }
    if let Some(path) = &a.events_out {
        std::fs::write(path, o.events().to_jsonl()).map_err(|e| e.to_string())?;
        println!(
            "events written to {path} ({} events, {} dropped)",
            o.events().len(),
            o.events().dropped()
        );
    }
    if let Some(path) = &a.metrics_out {
        let wrapped = format!(
            "{{\n  \"runtime\": \"{runtime}\",\n  \"seed\": {},\n  \"metrics\": {}\n}}\n",
            a.spec.seed,
            o.registry().to_json_indented("  ")
        );
        std::fs::write(path, wrapped).map_err(|e| e.to_string())?;
        println!("metrics written to {path}");
    }
    if let Some(path) = &a.trace_out {
        std::fs::write(path, o.trace().to_chrome_json()).map_err(|e| e.to_string())?;
        println!(
            "trace written to {path} ({} spans, {} dropped)",
            o.trace().len(),
            o.trace().dropped()
        );
    }
    Ok(())
}

/// `bulk replay`: the job is a parsed trace file instead of a generated
/// profile; nothing is armed.
fn replay(a: ReplayArgs) -> Result<(), String> {
    let text = std::fs::read_to_string(&a.file).map_err(|e| e.to_string())?;
    let job = if text.starts_with("TM ") {
        Job::Tm {
            workload: Cow::Owned(io::tm_from_str(&text).map_err(|e| e.to_string())?),
            scheme: a.scheme.parse()?,
            cfg: SimConfig::tm_default(),
        }
    } else if text.starts_with("TLS ") {
        Job::Tls {
            workload: Cow::Owned(io::tls_from_str(&text).map_err(|e| e.to_string())?),
            scheme: a.scheme.parse()?,
            cfg: SimConfig::tls_default(),
        }
    } else {
        return Err("unrecognized trace header (expected `TM <name>` or `TLS <name>`)".into());
    };
    let name = match &job {
        Job::Tm { workload, .. } => &workload.name,
        Job::Tls { workload, .. } => &workload.name,
    };
    let r = SimRuntime.run(&job, &RunOptions::default()).map_err(|e| e.to_string())?;
    report::print_run(name, &job, &r, false);
    Ok(())
}

/// `bulk sweep-sig`: one generated trace, run under Bulk once per
/// signature configuration.
fn sweep_sig(app: &str, seed: u64) -> Result<(), String> {
    let spec = JobSpec { seed, ..JobSpec::new(Machine::Tm, app, "bulk") };
    let job = JobPlan::resolve(&spec).map_err(|e| e.to_string())?.generate(seed);
    println!(
        "{:<6} {:>7} {:>9} {:>7} {:>9} {:>9}",
        "config", "bits", "squashes", "false", "false%", "cycles"
    );
    for id in ["S1", "S4", "S9", "S12", "S14", "S17", "S19", "S23"] {
        let sig = signature(id)?;
        let bits = sig.size_bits();
        let opts = RunOptions { sig: Some(sig), ..RunOptions::default() };
        let r = SimRuntime.run(&job, &opts).map_err(|e| e.to_string())?;
        let RunDetail::Tm(stats) = &r.detail else { unreachable!("the sim ran a TM job") };
        println!(
            "{:<6} {:>7} {:>9} {:>7} {:>8.1} {:>9}",
            id,
            bits,
            stats.squashes,
            stats.false_squashes,
            100.0 * stats.false_squash_frac(),
            stats.cycles
        );
    }
    Ok(())
}
