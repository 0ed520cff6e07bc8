//! Under `--runtime par` a flag is honoured or refused, never dropped:
//! `bulk tm --app cb --runtime par --sig S1 --metrics` used to run S14
//! and print no metrics section.

use std::process::{Command, Output};

fn bulk(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bulk"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn bulk")
}

#[test]
fn metrics_under_par_prints_the_registry_section_with_the_par_counters() {
    let out = bulk("tm --app cb --runtime par --txs 10 --metrics");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TM run: app=cb scheme=Bulk runtime=par"), "{stdout}");
    assert!(stdout.contains("metrics (par, runtime=par):"), "{stdout}");
    assert!(stdout.contains("squash attribution"), "{stdout}");
    // 8 threads x 10 transactions, whatever the interleaving.
    let commits = stdout.lines().find(|l| l.trim_start().starts_with("par.commits"));
    assert_eq!(commits.map(|l| l.split_whitespace().last()), Some(Some("80")), "{stdout}");
}

#[test]
fn an_explicit_sig_under_par_is_refused_like_the_other_sim_only_flags() {
    for (args, flag) in [
        ("tm --app cb --runtime par --sig S1 --metrics", "--sig"),
        ("tm --app cb --runtime par --watchdog-ticks 9", "--watchdog-ticks"),
        ("tls --app gzip --runtime par --trace-out /dev/null", "--trace-out"),
    ] {
        let out = bulk(args);
        assert!(!out.status.success(), "`{args}` must be refused");
        assert!(out.stdout.is_empty(), "`{args}` ran before refusing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} hooks the simulated machine and is sim-only")), "{stderr}");
    }
    // The default signature is not a request: no --sig, no refusal.
    assert!(bulk("tm --app cb --runtime par --txs 4").status.success());
}
