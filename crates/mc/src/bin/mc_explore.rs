//! `mc_explore` — the CI entry point of the protocol model checker.
//!
//! Default run: explore the documented exhaustive bounds with the correct
//! protocol (must pass), then run the mutation suite (every seeded bug
//! must yield a minimal certified counterexample; `no-fencing` must NOT,
//! demonstrating a discharged redundancy). Counterexample traces are
//! written to `--out <dir>` as `counterexample-<mutation>.txt` so CI can
//! upload them as artifacts. Exits 1 if the unmutated protocol fails or a
//! seeded bug escapes detection, 2 on bad invocation.
//!
//! `--smoke` explores a reduced configuration (2 procs, 1 crash) at a
//! small depth bound plus a single mutation — the sub-second check
//! `scripts/verify.sh` runs.

use std::path::PathBuf;
use std::process::ExitCode;

use bulk_mc::{explore, explore_bounded, ExploreReport, ModelConfig, Mutation};

const USAGE: &str = "\
mc_explore — exhaustive model checking of the Bulk commit/failover protocol

USAGE:
  mc_explore [--smoke] [--mutation <name>] [--out <dir>]
             [--procs <n>] [--commits <n>] [--crashes <n>] [--dups <n>]
             [--max-depth <n>]

  Default: exhaustive bounds (3 procs, 1 commit each, 2 crashes, 1 dup)
  with the correct protocol, then the full mutation suite.

  --smoke            reduced bounds + depth cap + one mutation (fast gate)
  --mutation <name>  check only this mutation (none | skip-cursor |
                     replay-without-restamp | skip-replay | no-fencing)
  --out <dir>        write counterexample-<mutation>.txt artifacts here
  --procs/--commits/--crashes/--dups  override the bounds
  --max-depth <n>    bound exploration depth (reports TRUNCATED)
";

struct Args {
    smoke: bool,
    only: Option<Mutation>,
    out: Option<PathBuf>,
    cfg: ModelConfig,
    max_depth: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        only: None,
        out: None,
        cfg: ModelConfig::exhaustive(),
        max_depth: usize::MAX,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("flag {flag} needs a value"));
        let num = |v: String, what: &str| -> Result<u8, String> {
            v.parse().map_err(|_| format!("{what}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--mutation" => {
                let v = value()?;
                args.only =
                    Some(Mutation::parse(&v).ok_or(format!("unknown mutation `{v}`"))?);
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--procs" => args.cfg.procs = num(value()?, "--procs")?,
            "--commits" => args.cfg.commits_per_proc = num(value()?, "--commits")?,
            "--crashes" => args.cfg.max_crashes = num(value()?, "--crashes")?,
            "--dups" => args.cfg.max_dups = num(value()?, "--dups")?,
            "--max-depth" => {
                let v = value()?;
                args.max_depth =
                    v.parse().map_err(|_| format!("--max-depth: bad number `{v}`"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.smoke {
        args.cfg.procs = 2;
        args.cfg.max_crashes = 1;
        args.max_depth = args.max_depth.min(16);
    }
    Ok(args)
}

fn run_one(cfg: ModelConfig, max_depth: usize, out: Option<&PathBuf>) -> (ExploreReport, bool) {
    let mutation = cfg.mutation;
    let report = if max_depth == usize::MAX {
        explore(cfg)
    } else {
        explore_bounded(cfg, max_depth)
    };
    let expect_cx = mutation.expects_counterexample();
    let ok = report.passed() != expect_cx;
    let verdict = match (report.passed(), expect_cx) {
        (true, false) => "PASS (no violation, as required)",
        (false, true) => "PASS (seeded bug caught)",
        (true, true) => "FAIL (seeded bug escaped detection)",
        (false, false) => "FAIL (correct protocol violated a property)",
    };
    println!("[{mutation}] {} — {verdict}", report.summary());
    if let Some(cx) = &report.counterexample {
        println!("  minimal counterexample ({} steps):", cx.trace.len());
        print!("{}", cx.render());
        if let Some(dir) = out {
            let path = dir.join(format!("counterexample-{mutation}.txt"));
            let body = format!(
                "mutation: {mutation}\nbounds: {:?}\nsummary: {}\n\n{}",
                report.config,
                report.summary(),
                cx.render()
            );
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, body))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("  wrote {}", path.display());
            }
        }
    }
    (report, ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mutations: Vec<Mutation> = match args.only {
        Some(m) => vec![m],
        // With 2 procs a fully-delivered broadcast retires before the
        // interconnect can duplicate it, so the smoke bug must be a
        // crash-path one: skip-replay loses a commit at depth ~5.
        None if args.smoke => vec![Mutation::None, Mutation::SkipReplay],
        None => {
            let mut all = vec![Mutation::None];
            all.extend(Mutation::seeded_bugs());
            all.push(Mutation::NoFencing);
            all
        }
    };

    let mut failed = false;
    for mutation in mutations {
        let cfg = ModelConfig { mutation, ..args.cfg };
        let (_, ok) = run_one(cfg, args.max_depth, args.out.as_ref());
        failed |= !ok;
    }
    if failed {
        eprintln!("mc_explore: FAIL");
        ExitCode::FAILURE
    } else {
        println!("mc_explore: all checks passed");
        ExitCode::SUCCESS
    }
}
