//! `bulk` — command-line driver for the Bulk Disambiguation reproduction.
//!
//! Run `bulk help` for usage. The driver can run any application profile
//! under any scheme, dump/replay traces, list the catalogs and sweep
//! signature configurations.

mod args;
mod report;

use std::process::ExitCode;
use std::sync::Arc;

use args::{parse, BulkdArgs, Command, ReplayArgs, TlsArgs, TmArgs, USAGE};
use bulk_chaos::FaultPlan;
use bulk_live::{BackoffConfig, LivenessConfig, WatchdogConfig};
use bulk_obs::Obs;
use bulk_par::{ParConfig, ParRuntime, Runtime};
use bulk_sig::{table8, table8_spec, BitPermutation, Granularity, SignatureConfig};
use bulk_sim::{SimConfig, SimHarness};
use bulk_tls::TlsMachine;
use bulk_tm::TmMachine;
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
        Command::Tm(a) => run_tm(a),
        Command::Tls(a) => run_tls(a),
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

/// Fails the run (nonzero exit) if the auditor observed violations.
fn check_violations(
    violations: &[bulk_chaos::InvariantViolation],
    chaos: Option<u64>,
) -> Result<(), String> {
    if violations.is_empty() {
        return Ok(());
    }
    for v in violations {
        eprintln!("{v}");
    }
    let replay = match chaos {
        Some(seed) => format!("; replay with BULK_CHAOS_SEED={seed}"),
        None => String::new(),
    };
    Err(format!("{} invariant violation(s){replay}", violations.len()))
}

/// Fails the run (nonzero exit) if the liveness watchdog tripped. The
/// printed diagnosis carries the detected squash cycle for livelocks.
fn check_liveness(violations: &[bulk_live::LivenessViolation]) -> Result<(), String> {
    if violations.is_empty() {
        return Ok(());
    }
    for v in violations {
        eprintln!("{v}");
    }
    Err(format!("{} liveness violation(s)", violations.len()))
}

/// The `--watchdog-ticks` configuration: pure detection. A zero backoff
/// ladder means arming the watchdog never perturbs the schedule, so a
/// watched run stays cycle-identical to an unwatched one.
fn watchdog_only(stall_ticks: u64) -> LivenessConfig {
    LivenessConfig {
        watchdog: WatchdogConfig {
            stall_ticks,
            ..WatchdogConfig::default()
        },
        backoff: BackoffConfig {
            base: 0,
            cap: 0,
            ..BackoffConfig::default()
        },
        ..LivenessConfig::default()
    }
}

fn run_tm(a: TmArgs) -> Result<(), String> {
    let mut p = profiles::tm_profile(&a.app)
        .ok_or_else(|| format!("unknown TM app `{}` (try `bulk list`)", a.app))?;
    if let Some(txs) = a.txs {
        p.txs_per_thread = txs;
    }
    let wl = p.generate(a.seed);
    if let Some(path) = &a.dump_trace {
        std::fs::write(path, io::tm_to_string(&wl)).map_err(|e| e.to_string())?;
        println!("trace written to {path}");
    }
    if a.runtime == "par" {
        reject_sim_only_flags("tm", a.watchdog_ticks, &a.events_out, &a.trace_out)?;
        let (cfg, chaos) = par_config(a.seed, a.chaos)?;
        let rt = ParRuntime::new(cfg);
        let r = rt
            .run_tm(&wl, a.scheme, &SimConfig::tm_default())
            .map_err(|e| par_error(e, chaos))?;
        report::print_par("TM", &a.app, &a.scheme.to_string(), &r);
        write_par_metrics(&a.metrics_out, &r, a.seed)?;
        return check_violations(&r.violations, chaos);
    }
    let sig = signature(&a.sig)?;
    let cfg = SimConfig::tm_default();
    let mut m =
        TmMachine::try_with_signature(&wl, a.scheme, &cfg, sig).map_err(|e| e.to_string())?;
    let seed = configure(m.harness_mut(), a.audit, a.chaos, a.seed, a.watchdog_ticks)?;
    let obs = make_obs(a.metrics, &a.events_out, &a.metrics_out, &a.trace_out);
    if let Some(o) = &obs {
        m.attach_obs(Arc::clone(o));
    }
    let stats = m.try_run().map_err(|e| e.to_string())?;
    report::print_tm(&a.app, a.scheme, &stats, a.chaos);
    finish_obs(
        &obs,
        "tm.",
        &a.runtime,
        a.seed,
        a.metrics,
        &a.events_out,
        &a.metrics_out,
        &a.trace_out,
    )?;
    check_violations(&stats.violations, seed)?;
    check_liveness(&stats.liveness_violations)
}

/// The parallel runtime's configuration for a CLI run: the workload seed
/// doubles as the backoff-jitter seed, everything else stays at the
/// defaults (`--runtime par` is about substrate semantics, not tuning).
/// `--chaos` arms the real-thread fault preset — seeded worker kills at
/// commit-protocol points, injected stalls, widened claim-to-publish
/// windows — and returns the fault seed for the replay hint.
fn par_config(seed: u64, chaos: bool) -> Result<(ParConfig, Option<u64>), String> {
    let mut cfg = ParConfig { seed, ..ParConfig::default() };
    if !chaos {
        return Ok((cfg, None));
    }
    let s = chaos_seed(seed)?;
    println!("chaos: fault seed {s} (replay with BULK_CHAOS_SEED={s})");
    cfg.chaos = Some(bulk_chaos::ChaosConfig::worker_crash(s));
    Ok((cfg, Some(s)))
}

/// Renders a parallel-runtime error, appending the chaos replay hint
/// when a fault preset was armed: an unrecoverable worker death or a
/// tripped wall-clock watchdog is only useful if it can be replayed.
fn par_error(e: bulk_par::RuntimeError, chaos: Option<u64>) -> String {
    match chaos {
        Some(seed) => format!("{e}; replay with BULK_CHAOS_SEED={seed}"),
        None => e.to_string(),
    }
}

/// Rejects the simulator-only flags under `--runtime par`: watchdog
/// ticks and the event/span pipelines all hook the simulated clock,
/// which real threads do not have. Failing loudly beats silently
/// dropping what the user asked for. (`--chaos` is *not* sim-only: under
/// par it arms the real-thread worker-fault preset instead.)
fn reject_sim_only_flags(
    cmd: &str,
    watchdog_ticks: Option<u64>,
    events_out: &Option<String>,
    trace_out: &Option<String>,
) -> Result<(), String> {
    let offending = if watchdog_ticks.is_some() {
        Some("--watchdog-ticks")
    } else if events_out.is_some() {
        Some("--events-out")
    } else if trace_out.is_some() {
        Some("--trace-out")
    } else {
        None
    };
    match offending {
        Some(flag) => Err(format!(
            "{cmd}: {flag} needs the simulated clock and is sim-only; \
             drop it or use --runtime sim"
        )),
        None => Ok(()),
    }
}

/// Writes the parallel runtime's self-describing metrics JSON when
/// `--metrics-out` asked for one.
fn write_par_metrics(
    path: &Option<String>,
    r: &bulk_par::RunReport,
    seed: u64,
) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, report::par_metrics_json(r, seed)).map_err(|e| e.to_string())?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// Builds the shared observability bundle when `--metrics`,
/// `--events-out`, `--metrics-out` or `--trace-out` asked for one.
fn make_obs(
    metrics: bool,
    events_out: &Option<String>,
    metrics_out: &Option<String>,
    trace_out: &Option<String>,
) -> Option<Arc<Obs>> {
    (metrics || events_out.is_some() || metrics_out.is_some() || trace_out.is_some())
        .then(|| Arc::new(Obs::new()))
}

/// Prints the metrics section and/or writes the event JSONL, the
/// registry JSON and the Chrome trace-event JSON, as requested. The
/// registry JSON is wrapped as `{"runtime": ..., "seed": ..., "metrics":
/// {...}}` so every metrics artifact names the substrate and workload
/// seed that produced it.
fn finish_obs(
    obs: &Option<Arc<Obs>>,
    prefix: &str,
    runtime: &str,
    seed: u64,
    metrics: bool,
    events_out: &Option<String>,
    metrics_out: &Option<String>,
    trace_out: &Option<String>,
) -> Result<(), String> {
    let Some(o) = obs else { return Ok(()) };
    if metrics {
        report::print_metrics(o.registry(), prefix, runtime);
        report::print_cycle_breakdown(o.registry(), prefix);
        report::print_event_drops(o.events());
    }
    if let Some(path) = events_out {
        std::fs::write(path, o.events().to_jsonl()).map_err(|e| e.to_string())?;
        println!(
            "events written to {path} ({} events, {} dropped)",
            o.events().len(),
            o.events().dropped()
        );
    }
    if let Some(path) = metrics_out {
        let wrapped = format!(
            "{{\n  \"runtime\": \"{runtime}\",\n  \"seed\": {seed},\n  \"metrics\": {}\n}}\n",
            o.registry().to_json_indented("  ")
        );
        std::fs::write(path, wrapped).map_err(|e| e.to_string())?;
        println!("metrics written to {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(path, o.trace().to_chrome_json()).map_err(|e| e.to_string())?;
        println!(
            "trace written to {path} ({} spans, {} dropped)",
            o.trace().len(),
            o.trace().dropped()
        );
    }
    Ok(())
}

fn run_tls(a: TlsArgs) -> Result<(), String> {
    let mut p = profiles::tls_profile(&a.app)
        .ok_or_else(|| format!("unknown TLS app `{}` (try `bulk list`)", a.app))?;
    if let Some(tasks) = a.tasks {
        p.tasks = tasks;
    }
    let wl = p.generate(a.seed);
    if let Some(path) = &a.dump_trace {
        std::fs::write(path, io::tls_to_string(&wl)).map_err(|e| e.to_string())?;
        println!("trace written to {path}");
    }
    let cfg = SimConfig::tls_default();
    if a.runtime == "par" {
        reject_sim_only_flags("tls", a.watchdog_ticks, &a.events_out, &a.trace_out)?;
        let (pcfg, chaos) = par_config(a.seed, a.chaos)?;
        let rt = ParRuntime::new(pcfg);
        let r = rt.run_tls(&wl, a.scheme, &cfg).map_err(|e| par_error(e, chaos))?;
        report::print_par("TLS", &a.app, &a.scheme.to_string(), &r);
        write_par_metrics(&a.metrics_out, &r, a.seed)?;
        return check_violations(&r.violations, chaos);
    }
    let seq = bulk_tls::run_tls_sequential(&wl, &cfg);
    let mut m = TlsMachine::try_new(&wl, a.scheme, &cfg).map_err(|e| e.to_string())?;
    let seed = configure(m.harness_mut(), a.audit, a.chaos, a.seed, a.watchdog_ticks)?;
    let obs = make_obs(a.metrics, &a.events_out, &a.metrics_out, &a.trace_out);
    if let Some(o) = &obs {
        m.attach_obs(Arc::clone(o));
    }
    let stats = m.try_run().map_err(|e| e.to_string())?;
    report::print_tls(&a.app, a.scheme, seq, &stats, a.chaos);
    finish_obs(
        &obs,
        "tls.",
        &a.runtime,
        a.seed,
        a.metrics,
        &a.events_out,
        &a.metrics_out,
        &a.trace_out,
    )?;
    check_violations(&stats.violations, seed)?;
    check_liveness(&stats.liveness_violations)
}

/// Arms a sim machine's instruments the way the flags ask: the auditor,
/// the chaos plan (returning its fault seed for the replay hint), the
/// detection-only watchdog.
fn configure(
    h: &mut SimHarness,
    audit: bool,
    chaos: bool,
    seed: u64,
    watchdog_ticks: Option<u64>,
) -> Result<Option<u64>, String> {
    if audit {
        h.enable_audit();
    }
    let mut fault_seed = None;
    if chaos {
        let s = chaos_seed(seed)?;
        println!("chaos: fault seed {s} (replay with BULK_CHAOS_SEED={s})");
        h.set_chaos(FaultPlan::seeded(s));
        fault_seed = Some(s);
    }
    if let Some(ticks) = watchdog_ticks {
        h.enable_liveness(watchdog_only(ticks));
    }
    Ok(fault_seed)
}

fn replay(a: ReplayArgs) -> Result<(), String> {
    let text = std::fs::read_to_string(&a.file).map_err(|e| e.to_string())?;
    if text.starts_with("TM ") {
        let wl = io::tm_from_str(&text).map_err(|e| e.to_string())?;
        let scheme = args::parse_tm_scheme(&a.scheme)?;
        let m = TmMachine::try_new(&wl, scheme, &SimConfig::tm_default())
            .map_err(|e| e.to_string())?;
        let stats = m.try_run().map_err(|e| e.to_string())?;
        report::print_tm(&wl.name.clone(), scheme, &stats, false);
        Ok(())
    } else if text.starts_with("TLS ") {
        let wl = io::tls_from_str(&text).map_err(|e| e.to_string())?;
        let scheme = args::parse_tls_scheme(&a.scheme)?;
        let cfg = SimConfig::tls_default();
        let seq = bulk_tls::run_tls_sequential(&wl, &cfg);
        let m = TlsMachine::try_new(&wl, scheme, &cfg).map_err(|e| e.to_string())?;
        let stats = m.try_run().map_err(|e| e.to_string())?;
        report::print_tls(&wl.name.clone(), scheme, seq, &stats, false);
        Ok(())
    } else {
        Err("unrecognized trace header (expected `TM <name>` or `TLS <name>`)".into())
    }
}

fn sweep_sig(app: &str, seed: u64) -> Result<(), String> {
    let p = profiles::tm_profile(app)
        .ok_or_else(|| format!("unknown TM app `{app}` (try `bulk list`)"))?;
    let wl = p.generate(seed);
    let cfg = SimConfig::tm_default();
    println!(
        "{:<6} {:>7} {:>9} {:>7} {:>9} {:>9}",
        "config", "bits", "squashes", "false", "false%", "cycles"
    );
    for id in ["S1", "S4", "S9", "S12", "S14", "S17", "S19", "S23"] {
        let sig = signature(id)?;
        let bits = sig.size_bits();
        let stats = TmMachine::with_signature(&wl, bulk_tm::Scheme::Bulk, &cfg, sig).run();
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
