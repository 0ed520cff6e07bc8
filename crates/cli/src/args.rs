//! Argument parsing for the `bulk` command-line driver. Hand-rolled and
//! dependency-free; every failure produces a message pointing at the
//! offending flag.

use bulk_trace::jobspec::{JobRuntime, JobSpec, Machine};

/// A parsed `bulk` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bulk list` — show applications, schemes and the signature catalog.
    List,
    /// `bulk tm ...` / `bulk tls ...` — run one job.
    Run(RunArgs),
    /// `bulk replay --file F --scheme S` — run a serialized trace.
    Replay(ReplayArgs),
    /// `bulk sweep-sig --app A` — signature-size ablation on one app.
    SweepSig { app: String, seed: u64 },
    /// `bulk bulkd ...` — run the live telemetry daemon.
    Bulkd(BulkdArgs),
    /// `bulk submit --connect A --spec J` — submit a job spec to a
    /// running daemon and stream its event JSONL to stdout.
    Submit {
        /// Daemon ingest address.
        connect: String,
        /// The job-spec JSON line (from `--spec` or `--spec-file`).
        spec: String,
    },
    /// `bulk status --connect A` — print the daemon's job table.
    Status {
        /// Daemon ingest address.
        connect: String,
    },
    /// `bulk shutdown --connect A` — ask the daemon to stop.
    Shutdown {
        /// Daemon ingest address.
        connect: String,
    },
    /// `bulk scrape --connect A [--check]` — fetch `/metrics` and print
    /// it; `--check` also parse-validates the exposition.
    Scrape {
        /// Daemon HTTP address.
        connect: String,
        /// Validate the exposition format and exit nonzero on errors.
        check: bool,
    },
    /// `bulk help` or `--help`.
    Help,
}

/// Options of `bulk bulkd` (the daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkdArgs {
    /// Ingest listen address (`host:port`; port 0 picks a free port).
    pub listen: String,
    /// HTTP `/metrics` listen address.
    pub http: String,
    /// Maximum concurrently-running jobs.
    pub max_jobs: u64,
    /// Default wall-clock budget per job in ms (0 disables the watchdog).
    pub job_timeout_ms: u64,
    /// Per-job event-ring capacity (0 keeps the library default).
    pub event_capacity: u64,
    /// Write `<ingest-addr>\n<http-addr>\n` here once bound — lets shell
    /// scripts start the daemon on port 0 and discover where it landed.
    pub addr_file: Option<String>,
}

/// Options of `bulk tm` and `bulk tls`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// What to run, in the daemon's wire type: machine, application
    /// profile, scheme name (checked at parse time), workload seed,
    /// substrate (`--runtime`) and the `--txs` / `--tasks` override.
    pub spec: JobSpec,
    /// Signature configuration id (`S1`..`S23`; `bulk tm` only). `None`
    /// runs the paper's S14.
    pub sig: Option<String>,
    /// Inject deterministic faults (implies `--audit`).
    pub chaos: bool,
    /// Check runtime invariants after every commit and squash.
    pub audit: bool,
    /// Arm the detection-only forward-progress watchdog with this
    /// global-stall bound in cycles; a trip exits nonzero with a diagnosis.
    pub watchdog_ticks: Option<u64>,
    /// Print the metrics registry (squash attribution, invalidation
    /// overshoot, counters/gauges/histograms) after the run.
    pub metrics: bool,
    /// Write the structured event log as JSONL to this path.
    pub events_out: Option<String>,
    /// Write the metrics registry as JSON to this path.
    pub metrics_out: Option<String>,
    /// Write the causal span trace as Chrome trace-event JSON to this path.
    pub trace_out: Option<String>,
    /// Write the generated trace to this path.
    pub dump_trace: Option<String>,
}

/// Options of `bulk replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArgs {
    /// Path of a trace serialized by `--dump-trace` (TM or TLS; detected
    /// from the header).
    pub file: String,
    /// Scheme name, interpreted per trace kind.
    pub scheme: String,
}

/// Usage text printed by `bulk help`.
pub const USAGE: &str = "\
bulk — run the Bulk Disambiguation reproduction

USAGE:
  bulk list
  bulk tm  --app <name> [--runtime <sim|par>]
           [--scheme <eager-naive|eager|lazy|bulk|bulk-partial>]
           [--seed <n>] [--txs <n>] [--sig <S1..S23>] [--dump-trace <file>]
           [--chaos] [--audit] [--metrics] [--events-out <file>]
           [--metrics-out <file>] [--trace-out <file>] [--watchdog-ticks <n>]
  bulk tls --app <name> [--runtime <sim|par>]
           [--scheme <eager|lazy|bulk|bulk-no-overlap>]
           [--seed <n>] [--tasks <n>] [--dump-trace <file>]
           [--chaos] [--audit] [--metrics] [--events-out <file>]
           [--metrics-out <file>] [--trace-out <file>] [--watchdog-ticks <n>]
  bulk replay --file <trace> --scheme <name>
  bulk sweep-sig --app <name> [--seed <n>]
  bulk bulkd [--listen <host:port>] [--http <host:port>] [--max-jobs <n>]
             [--job-timeout-ms <n>] [--event-capacity <n>] [--addr-file <file>]
  bulk submit --connect <host:port> (--spec <json> | --spec-file <file>)
  bulk status --connect <host:port>
  bulk shutdown --connect <host:port>
  bulk scrape --connect <host:port> [--check]
  bulk help

DAEMON:
  `bulk bulkd` starts the live telemetry daemon: it accepts line-delimited
  JSON job specs on the ingest socket (one object per line, e.g.
  {\"machine\": \"tm\", \"app\": \"cb\", \"scheme\": \"bulk\", \"seed\": 7,
  \"runtime\": \"par\"}), runs up to --max-jobs of them concurrently on
  either substrate, streams each job's structured event log back as JSONL
  on the submitting connection, and serves every job's metrics registry on
  GET /metrics in Prometheus text exposition format with job/machine/
  scheme/runtime labels. A job that exceeds its wall-clock budget
  (spec key timeout_ms, default --job-timeout-ms) is reaped as a typed
  job-timeout failure; the daemon and its other jobs keep running.
  `bulk submit` sends one spec and relays the stream; `bulk scrape
  --check` validates the exposition (CI uses it as the smoke gate).

RUNTIMES:
  --runtime selects the execution substrate. `sim` (the default) is the
  deterministic discrete-event simulator: same trace + same seed is
  byte-identical across runs, and it models Table 5 timing. `par` runs
  the same commit/squash protocol on real OS threads over a lock-free
  broadcast log that each receiver walks slot by slot; it supports
  the schemes whose disambiguation is timing-independent (TM: bulk,
  lazy; TLS: bulk, bulk-no-overlap, lazy), audits its committed history
  after every run, and reports wall time instead of simulated cycles.
  The simulator-only flags (--sig, --watchdog-ticks, --events-out,
  --trace-out) are rejected under --runtime par; --metrics and
  --metrics-out report its `par.*` counters; --chaos composes with it
  and switches to the real-thread fault preset described below.

CHAOS:
  --chaos injects deterministic faults (commit denials, delayed/duplicated
  broadcasts, in-flight signature corruption, forced context switches and
  evictions) and audits every invariant; --audit checks invariants on a
  fault-free run. The fault seed defaults to the workload seed and can be
  overridden with the BULK_CHAOS_SEED environment variable; every chaos
  run prints the seed needed to replay it. Any invariant violation or
  undetected corruption makes the exit code nonzero. Under --runtime par
  the same flag arms the real-thread fault preset instead: seeded worker
  kills at commit-protocol points (claim, publish, apply), short injected
  stalls and widened claim-to-publish windows. The supervisor fences the
  dead worker's orphaned bus slot (TM) or lets the respawned worker adopt
  it (TLS), respawns from the last verified checkpoint, and reports the
  recoveries in a resilience section; an unrecoverable death or a
  wall-clock stall exits nonzero with the replay seed.

OBSERVABILITY:
  --metrics prints the metrics registry after the run: every squash is
  attributed against the exact per-address oracle (true-conflict vs.
  signature aliasing), bulk invalidations record exact-vs-expanded line
  counts, and all counters/gauges/histograms are listed. --events-out
  writes the structured event log (commit broadcasts, squashes with
  cause, bulk invalidations, overflow spills, context switches,
  escalations) as one JSON object per line. --metrics-out writes the
  registry itself as JSON (sorted names, fixed layout — byte-identical
  across same-seed runs); CI uploads these as workflow artifacts.
  --trace-out writes the causal span trace in Chrome trace-event JSON
  (load it in chrome://tracing or ui.perfetto.dev): speculative sections,
  commit broadcasts, squashes, backoff, stalls, spills and checkpoints as
  spans, with flow arrows from every commit broadcast to the squashes and
  bulk invalidations it caused. The trace also feeds the cycle-accounting
  profiler, whose per-category breakdown (useful, squashed, commit,
  stall, overhead, other) appears in the --metrics report under
  `*.cycles.*` and must conserve: categories sum to the total of all
  per-thread timelines, audited like any other invariant.

LIVENESS:
  --watchdog-ticks <n> arms the detection-only forward-progress watchdog:
  livelock (a squash ping-pong cycle between two threads), starvation
  (one thread's commit age exceeding its bound) and global stall (no
  commit for <n> cycles). Detection never perturbs the schedule — the
  backoff ladder stays off. A trip aborts the run, prints the diagnosis
  (including the detected squash cycle) and exits nonzero; try
  `bulk tm --app mc --scheme eager-naive --watchdog-ticks 1000000`.
";

struct Flags {
    pairs: Vec<(String, String)>,
}

/// Flags that stand alone, without a value.
const BOOLEAN_FLAGS: &[&str] = &["chaos", "audit", "metrics", "check"];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found `{flag}`"))?;
            if BOOLEAN_FLAGS.contains(&name) {
                pairs.push((name.to_string(), String::new()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let i = self.pairs.iter().position(|(n, _)| n == name)?;
        Some(self.pairs.remove(i).1)
    }

    fn take_bool(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for any unknown command, unknown flag,
/// missing value, or malformed number.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "tm" | "tls" => {
            let machine = if cmd == "tm" { Machine::Tm } else { Machine::Tls };
            let mut f = Flags::parse(rest)?;
            let app = f.take("app").ok_or_else(|| format!("{cmd}: --app is required"))?;
            let runtime = match f.take("runtime").as_deref() {
                None | Some("sim") => JobRuntime::Sim,
                Some("par") => JobRuntime::Par,
                Some(other) => return Err(format!("unknown runtime `{other}` (expected sim|par)")),
            };
            let scheme = f.take("scheme").unwrap_or_else(|| "bulk".into());
            // The per-command flags: a flag of the other machine stays
            // behind in `f` and fails `finish` as unknown.
            let (txs, tasks, sig) = match machine {
                Machine::Tm => {
                    scheme.parse::<bulk_tm::Scheme>()?;
                    (parse_opt_num(f.take("txs"), "--txs")?, None, f.take("sig"))
                }
                Machine::Tls => {
                    scheme.parse::<bulk_tls::TlsScheme>()?;
                    (None, parse_opt_num(f.take("tasks"), "--tasks")?, None)
                }
            };
            let seed = parse_num(f.take("seed"), 42, "--seed")?;
            let spec = JobSpec { seed, runtime, txs, tasks, ..JobSpec::new(machine, &app, &scheme) };
            let chaos = f.take_bool("chaos");
            let args = RunArgs {
                spec,
                sig,
                chaos,
                audit: f.take_bool("audit") || chaos,
                watchdog_ticks: parse_opt_num(f.take("watchdog-ticks"), "--watchdog-ticks")?,
                metrics: f.take_bool("metrics"),
                events_out: f.take("events-out"),
                metrics_out: f.take("metrics-out"),
                trace_out: f.take("trace-out"),
                dump_trace: f.take("dump-trace"),
            };
            f.finish()?;
            Ok(Command::Run(args))
        }
        "replay" => {
            let mut f = Flags::parse(rest)?;
            let file = f.take("file").ok_or("replay: --file is required")?;
            let scheme = f.take("scheme").ok_or("replay: --scheme is required")?;
            f.finish()?;
            Ok(Command::Replay(ReplayArgs { file, scheme }))
        }
        "sweep-sig" => {
            let mut f = Flags::parse(rest)?;
            let app = f.take("app").ok_or("sweep-sig: --app is required")?;
            let seed = parse_num(f.take("seed"), 42, "--seed")?;
            f.finish()?;
            Ok(Command::SweepSig { app, seed })
        }
        "bulkd" => {
            let mut f = Flags::parse(rest)?;
            let listen = f.take("listen").unwrap_or_else(|| "127.0.0.1:7700".into());
            let http = f.take("http").unwrap_or_else(|| "127.0.0.1:7701".into());
            let max_jobs = parse_num(f.take("max-jobs"), 8, "--max-jobs")?;
            let job_timeout_ms = parse_num(f.take("job-timeout-ms"), 30_000, "--job-timeout-ms")?;
            let event_capacity = parse_num(f.take("event-capacity"), 0, "--event-capacity")?;
            let addr_file = f.take("addr-file");
            f.finish()?;
            Ok(Command::Bulkd(BulkdArgs {
                listen,
                http,
                max_jobs,
                job_timeout_ms,
                event_capacity,
                addr_file,
            }))
        }
        "submit" => {
            let mut f = Flags::parse(rest)?;
            let connect = f.take("connect").ok_or("submit: --connect is required")?;
            let spec = match (f.take("spec"), f.take("spec-file")) {
                (Some(s), None) => s,
                (None, Some(path)) => std::fs::read_to_string(&path)
                    .map_err(|e| format!("--spec-file {path}: {e}"))?
                    .trim()
                    .to_string(),
                (Some(_), Some(_)) => {
                    return Err("submit: --spec and --spec-file are mutually exclusive".into())
                }
                (None, None) => return Err("submit: --spec or --spec-file is required".into()),
            };
            f.finish()?;
            Ok(Command::Submit { connect, spec })
        }
        "status" => {
            let mut f = Flags::parse(rest)?;
            let connect = f.take("connect").ok_or("status: --connect is required")?;
            f.finish()?;
            Ok(Command::Status { connect })
        }
        "shutdown" => {
            let mut f = Flags::parse(rest)?;
            let connect = f.take("connect").ok_or("shutdown: --connect is required")?;
            f.finish()?;
            Ok(Command::Shutdown { connect })
        }
        "scrape" => {
            let mut f = Flags::parse(rest)?;
            let connect = f.take("connect").ok_or("scrape: --connect is required")?;
            let check = f.take_bool("check");
            f.finish()?;
            Ok(Command::Scrape { connect, check })
        }
        other => Err(format!("unknown command `{other}`; try `bulk help`")),
    }
}

fn parse_num(v: Option<String>, default: u64, flag: &str) -> Result<u64, String> {
    match v {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: bad number `{v}`")),
    }
}

fn parse_opt_num(v: Option<String>, flag: &str) -> Result<Option<u64>, String> {
    match v {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: bad number `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_args(s: &str) -> RunArgs {
        match parse(&args(s)).unwrap() {
            Command::Run(a) => a,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_tm_with_defaults() {
        assert_eq!(
            run_args("tm --app mc"),
            RunArgs {
                spec: JobSpec::parse(r#"{"machine": "tm", "app": "mc", "scheme": "bulk"}"#)
                    .unwrap(),
                sig: None,
                chaos: false,
                audit: false,
                watchdog_ticks: None,
                metrics: false,
                events_out: None,
                metrics_out: None,
                trace_out: None,
                dump_trace: None,
            }
        );
    }

    /// The CLI's flags and the daemon's wire line describe a run with the
    /// same value.
    #[test]
    fn flags_and_wire_line_yield_the_same_job_spec() {
        let a = run_args("tm --app cb --scheme lazy --seed 7 --txs 30 --runtime par");
        let wire = r#"{"machine": "tm", "app": "cb", "scheme": "lazy", "seed": 7, "txs": 30, "runtime": "par"}"#;
        assert_eq!(a.spec, JobSpec::parse(wire).unwrap());
        let a = run_args("tls --app gzip --scheme bulk-no-overlap --seed 3 --tasks 50");
        let wire = r#"{"machine": "tls", "app": "gzip", "scheme": "bulk-no-overlap", "seed": 3, "tasks": 50}"#;
        assert_eq!(a.spec, JobSpec::parse(wire).unwrap());
    }

    #[test]
    fn parses_runtime() {
        assert_eq!(run_args("tm --app mc --runtime par").spec.runtime, JobRuntime::Par);
        let a = run_args("tls --app gzip --runtime par --seed 3");
        assert_eq!((a.spec.runtime, a.spec.seed), (JobRuntime::Par, 3));
        assert_eq!(run_args("tls --app gzip").spec.runtime, JobRuntime::Sim, "the default");
        assert!(parse(&args("tm --app mc --runtime hw")).is_err());
        assert!(parse(&args("tm --app mc --runtime")).is_err());
    }

    #[test]
    fn parses_trace_out() {
        let a = run_args("tm --app mc --trace-out /tmp/t.json");
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(run_args("tls --app gzip --trace-out t.json").trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn parses_metrics_out() {
        let a = run_args("tm --app mc --metrics-out /tmp/m.json");
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(run_args("tls --app gzip --metrics-out m.json").metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn parses_watchdog_ticks() {
        let a = run_args("tm --app mc --scheme eager-naive --watchdog-ticks 500000");
        assert_eq!(a.watchdog_ticks, Some(500_000));
        assert_eq!(run_args("tls --app gzip --watchdog-ticks 9").watchdog_ticks, Some(9));
        assert!(parse(&args("tm --app mc --watchdog-ticks nope")).is_err());
        assert!(parse(&args("tm --app mc --watchdog-ticks")).is_err());
    }

    #[test]
    fn parses_chaos_and_audit_flags() {
        let a = run_args("tm --app mc --chaos");
        assert!(a.chaos);
        assert!(a.audit, "--chaos implies --audit");
        let a = run_args("tls --app gzip --audit --seed 9");
        assert_eq!((a.chaos, a.audit, a.spec.seed), (false, true, 9));
        // Boolean flags consume no value: the next token is still a flag.
        let a = run_args("tls --app gzip --chaos --tasks 5");
        assert!(a.chaos);
        assert_eq!(a.spec.tasks, Some(5));
    }

    #[test]
    fn parses_full_tm() {
        let a = run_args("tm --app lu --scheme lazy --seed 7 --txs 20 --sig S4 --dump-trace /tmp/t");
        assert_eq!(a.spec.machine, Machine::Tm);
        assert_eq!(a.spec.scheme, "lazy");
        assert_eq!(a.spec.seed, 7);
        assert_eq!(a.spec.txs, Some(20));
        assert_eq!(a.sig.as_deref(), Some("S4"));
        assert_eq!(a.dump_trace.as_deref(), Some("/tmp/t"));
    }

    #[test]
    fn parses_tls_and_replay_and_sweep() {
        let a = run_args("tls --app gzip --scheme bulk-no-overlap");
        assert_eq!((a.spec.machine, a.spec.scheme.as_str()), (Machine::Tls, "bulk-no-overlap"));
        assert!(matches!(
            parse(&args("replay --file t.trace --scheme bulk")).unwrap(),
            Command::Replay(_)
        ));
        assert!(matches!(
            parse(&args("sweep-sig --app cb --seed 3")).unwrap(),
            Command::SweepSig { seed: 3, .. }
        ));
    }

    #[test]
    fn parses_metrics_and_events_out() {
        let a = run_args("tm --app mc --metrics --events-out /tmp/e.jsonl");
        assert!(a.metrics);
        assert_eq!(a.events_out.as_deref(), Some("/tmp/e.jsonl"));
        // --metrics is boolean: the next token is still parsed as a flag.
        let a = run_args("tls --app gzip --metrics --seed 5");
        assert!(a.metrics && a.events_out.is_none());
        assert_eq!(a.spec.seed, 5);
    }

    #[test]
    fn parses_daemon_commands() {
        match parse(&args("bulkd --listen 127.0.0.1:0 --http 127.0.0.1:0 --max-jobs 3 --addr-file /tmp/a")).unwrap() {
            Command::Bulkd(a) => {
                assert_eq!(a.listen, "127.0.0.1:0");
                assert_eq!(a.max_jobs, 3);
                assert_eq!(a.job_timeout_ms, 30_000, "default budget");
                assert_eq!(a.addr_file.as_deref(), Some("/tmp/a"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&args("bulkd")).unwrap() {
            Command::Bulkd(a) => {
                assert_eq!(a.listen, "127.0.0.1:7700");
                assert_eq!(a.http, "127.0.0.1:7701");
                assert_eq!(a.max_jobs, 8);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&args("status --connect 127.0.0.1:7700")).unwrap(),
            Command::Status { .. }
        ));
        assert!(matches!(
            parse(&args("shutdown --connect 127.0.0.1:7700")).unwrap(),
            Command::Shutdown { .. }
        ));
        match parse(&args("scrape --connect 127.0.0.1:7701 --check")).unwrap() {
            Command::Scrape { check, .. } => assert!(check),
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("status")).is_err(), "--connect is required");
        assert!(parse(&args("bulkd --max-jobs nope")).is_err());
    }

    #[test]
    fn parses_submit_spec_variants() {
        let spec = "{\"machine\":\"tm\",\"app\":\"cb\",\"scheme\":\"bulk\"}";
        match parse(&["submit".into(), "--connect".into(), "h:1".into(), "--spec".into(), spec.into()])
            .unwrap()
        {
            Command::Submit { connect, spec: s } => {
                assert_eq!(connect, "h:1");
                assert_eq!(s, spec);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("submit --connect h:1")).is_err(), "spec required");
        assert!(
            parse(&["submit".into(), "--connect".into(), "h:1".into(), "--spec".into(), "{}".into(), "--spec-file".into(), "f".into()]).is_err(),
            "spec sources are mutually exclusive"
        );
    }

    #[test]
    fn rejects_unknowns() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("tm --app mc --bogus 1")).is_err());
        assert!(parse(&args("tm --app mc --scheme wat")).is_err());
        assert!(parse(&args("tm")).is_err());
        assert!(parse(&args("tm --app")).is_err());
        assert!(parse(&args("tm --app mc --seed nope")).is_err());
        // The per-command flag sets did not merge with the structs.
        assert_eq!(parse(&args("tls --app gzip --sig S4")).unwrap_err(), "unknown flag --sig");
        assert_eq!(parse(&args("tls --app gzip --txs 5")).unwrap_err(), "unknown flag --txs");
        assert_eq!(parse(&args("tm --app mc --tasks 5")).unwrap_err(), "unknown flag --tasks");
        assert!(parse(&args("tls --app gzip --scheme bulk-partial")).is_err(), "a TM scheme");
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("list")).unwrap(), Command::List);
    }
}
