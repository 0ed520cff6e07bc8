//! Golden digests of everything the simulator prints and writes: the
//! oracle for a PR that may change host speed but no simulated result.
//!
//! `tests/golden/sim_digests.txt` holds one `sig::crc64` per line: the
//! stdout of `bulk tm` for every TM app × {eager, lazy, bulk,
//! bulk-partial} and of `bulk tls` for every TLS app × {eager, lazy,
//! bulk, bulk-no-overlap} at seeds 42 and 7, then one `--audit` run per
//! machine with its metrics JSON, event JSONL and Chrome trace, and one
//! `--chaos` run per machine. A PR that means to change a simulated
//! result regenerates the file and says why in CHANGES.md:
//!
//! ```text
//! cargo test -p bulk-cli --test sim_digests -- --ignored regenerate
//! ```
//!
//! Under plain `cargo test` the binary is a debug build, so the machines'
//! `debug_assertions` cross-checks run over the whole matrix as well.

use std::path::{Path, PathBuf};
use std::process::Command;

use bulk_sig::crc64;
use bulk_trace::profiles;

const SEEDS: [u64; 2] = [42, 7];
const TM_SCHEMES: [&str; 4] = ["eager", "lazy", "bulk", "bulk-partial"];
const TLS_SCHEMES: [&str; 4] = ["eager", "lazy", "bulk", "bulk-no-overlap"];
const OUT_FLAGS: [(&str, &str); 3] =
    [("--metrics-out", "metrics.json"), ("--events-out", "events.jsonl"), ("--trace-out", "trace.json")];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sim_digests.txt")
}

/// One `bulk` invocation: its label in the golden file, its arguments,
/// and whether it also writes the three observability files.
struct Case {
    label: String,
    args: Vec<String>,
    observed: bool,
}

fn case(machine: &str, app: &str, scheme: &str, seed: u64, mode: Option<&str>) -> Case {
    let mut label = format!("{machine} {app} {scheme} {seed}");
    let mut args: Vec<String> = [machine, "--app", app, "--scheme", scheme, "--seed", &seed.to_string()]
        .map(String::from)
        .to_vec();
    if let Some(mode) = mode {
        label.push_str(&format!(" {mode}"));
        args.push(format!("--{mode}"));
    }
    let observed = mode == Some("audit");
    if observed {
        args.extend(OUT_FLAGS.iter().flat_map(|(flag, file)| [flag.to_string(), file.to_string()]));
    }
    Case { label, args, observed }
}

fn cases() -> Vec<Case> {
    let mut all = Vec::new();
    for p in profiles::tm_profiles() {
        for scheme in TM_SCHEMES {
            all.extend(SEEDS.map(|seed| case("tm", p.name, scheme, seed, None)));
        }
    }
    for p in profiles::tls_profiles() {
        for scheme in TLS_SCHEMES {
            all.extend(SEEDS.map(|seed| case("tls", p.name, scheme, seed, None)));
        }
    }
    all.push(case("tm", "sjbb2k", "bulk", 42, Some("audit")));
    all.push(case("tls", "crafty", "bulk", 42, Some("audit")));
    all.push(case("tm", "mc", "bulk", 7, Some("chaos")));
    all.push(case("tls", "gzip", "bulk", 7, Some("chaos")));
    all
}

/// Runs one case in its own scratch directory (the report names the
/// output files, so they are given relative to it) and returns its
/// golden lines.
fn run_case(bulk: &Path, work: &Path, idx: usize, c: &Case) -> Vec<String> {
    let dir = work.join(idx.to_string());
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(bulk)
        .args(&c.args)
        .current_dir(&dir)
        .env_remove("BULK_CHAOS_SEED")
        .output()
        .expect("spawn bulk");
    assert!(
        out.status.success(),
        "bulk {} failed:\n{}",
        c.args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = vec![format!("{:016x} {} stdout", crc64(&out.stdout), c.label)];
    if c.observed {
        for (_, file) in OUT_FLAGS {
            let bytes = std::fs::read(dir.join(file)).expect("observability output");
            lines.push(format!("{:016x} {} {file}", crc64(&bytes), c.label));
        }
    }
    lines
}

fn compute() -> String {
    let bulk = Path::new(env!("CARGO_BIN_EXE_bulk"));
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sim-digests-{}", std::process::id()));
    let cases = cases();
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(cases.len());
    // Worker `w` takes cases w, w + workers, …: the heavy audit and chaos
    // runs sit together at the end of the list and so spread over all.
    let mut done: Vec<(usize, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (work, cases) = (&work, &cases);
                s.spawn(move || {
                    (w..cases.len())
                        .step_by(workers)
                        .map(|i| (i, run_case(bulk, work, i, &cases[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("digest worker")).collect()
    });
    let _ = std::fs::remove_dir_all(&work);
    done.sort_by_key(|(i, _)| *i);
    let mut text = String::new();
    for line in done.into_iter().flat_map(|(_, lines)| lines) {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

#[test]
fn sim_outputs_match_the_golden_digests() {
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/sim_digests.txt");
    let fresh = compute();
    let moved: Vec<&str> = fresh
        .lines()
        .zip(golden.lines())
        .filter(|(f, g)| f != g)
        .map(|(f, _)| f.split_once(' ').map_or(f, |(_, label)| label))
        .collect();
    assert!(
        moved.is_empty() && fresh.lines().count() == golden.lines().count(),
        "{} of {} simulated outputs differ from tests/golden/sim_digests.txt \
         (see this file's header to regenerate): {moved:?}",
        moved.len(),
        golden.lines().count(),
    );
}

#[test]
#[ignore = "rewrites tests/golden/sim_digests.txt"]
fn regenerate() {
    std::fs::create_dir_all(golden_path().parent().expect("golden directory")).expect("golden directory");
    std::fs::write(golden_path(), compute()).expect("write golden digests");
}
