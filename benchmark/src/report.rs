//! What the ledger prints and writes: the host fingerprint, one table per
//! workload, the fidelity block, the JSON report, the contract's result
//! line and the `--check-repeat` comparison.

use std::path::Path;
use std::process::ExitCode;

use bulk_repro::obs::json_escape;

use crate::run::{Metric, END_TO_END};
use crate::stats::{compare, median, percentile, quartiles, spread, worse_by, Verdict};
use crate::Outcome;

/// Prints where and on what the numbers are taken.
pub fn print_fingerprint(fingerprint: &[(&str, String)], seed: u64, seconds: f64) {
    println!("== host ==");
    for (k, v) in fingerprint {
        println!("  {k:<12} {v}");
    }
    println!("  {:<12} {seed}", "seed");
    println!("  {:<12} {seconds}", "seconds");
}

/// Prints one workload's metrics by name and unit, the sample count beside
/// each, then its failures and (for sim specs) the fidelity summary.
pub fn print_outcome(o: &Outcome, traced: bool) {
    let d = &o.data;
    println!(
        "\n== {} ({}) ==",
        o.workload,
        if traced {
            "traced, per layer"
        } else {
            "end to end"
        }
    );
    for m in &o.metrics {
        let tail = if m.name == "op_tail_ms" {
            format!("  p{}", o.tail)
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16.6} {:<6} n={}{tail}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !d.speed.is_empty() {
        println!(
            "  (times are at reference host speed; this run: speed ×{:.3} median, {:.3}–{:.3}; raw wall_s {:.6})",
            median(&d.speed),
            d.speed.iter().copied().fold(f64::INFINITY, f64::min),
            d.speed.iter().copied().fold(0.0, f64::max),
            median(&d.raw_wall_s)
        );
    }
    for (name, value, unit) in &d.notes {
        println!(
            "  {:<34} {value:>16.6} {unit:<6} (not gated)",
            format!("({name})")
        );
    }
    println!(
        "  ops {} attempted, {} failed; {} set-up repeat(s), {} timed pass(es)",
        d.attempted,
        d.failed,
        d.setup_s.len(),
        d.passes.len()
    );
    for why in &d.failures {
        println!("  FAILED {why}");
    }
    if !d.fidelity.is_empty() {
        // One line here; the per-spec block is in the report file.
        let all: Vec<u8> = d
            .fidelity
            .values()
            .flat_map(|(crc, _)| crc.to_le_bytes())
            .collect();
        let cycles: u64 = d.fidelity.values().map(|(_, c)| c).sum();
        println!(
            "  fidelity: {} sim specs, crc64 over their outputs {:016x}, {cycles} simulated cycles in all",
            d.fidelity.len(),
            bulk_repro::sig::crc64(&all)
        );
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one JSON object the driver reads from the last line of output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(metrics)
    )
}

/// Writes `report-<mode>-<workload>.json` into the scratch directory:
/// fingerprint, seed, pass counts, metrics with sample counts, failures and
/// the fidelity block.
pub fn write_report(
    work: &Path,
    mode: &str,
    fingerprint: &[(&str, String)],
    seed: u64,
    seconds: f64,
    o: &Outcome,
) {
    let host: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
        .collect();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    let fidelity: Vec<String> = o
        .data
        .fidelity
        .iter()
        .map(|(l, (crc, cycles))| {
            format!("    \"{l}\": {{\"crc64\": \"{crc:016x}\", \"sim_cycles\": {cycles}}}")
        })
        .collect();
    let passes: Vec<String> = (o.data.passes.iter().zip(&o.data.raw_wall_s).zip(&o.data.speed))
        .map(|((p, raw), speed)| {
            format!(
                "    {{\"raw_wall_s\": {raw}, \"speed\": {speed}, \"wall_s\": {}, \"cpu_s\": {}, \"commits\": {}}}",
                p.wall_s, p.cpu_s, p.commits
            )
        })
        .collect();
    let ladder: Vec<String> = crate::stats::TAIL_LADDER
        .iter()
        .map(|p| format!("\"p{p}\": {}", percentile(&o.data.op_ms, f64::from(*p))))
        .collect();
    let failures: Vec<String> = o
        .data
        .failures
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    let text = format!(
        "{{\n\"mode\": \"{mode}\", \"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds},\n\"host\": {{{}}},\n\"setup_repeats\": {}, \"passes\": {}, \"attempted\": {}, \"failed\": {}, \"op_tail_percentile\": {},\n\"failures\": [{}],\n\"metrics\": {{\n{}\n}},\n\"op_ms\": {{{}}},\n\"passes\": [\n{}\n],\n\"fidelity\": {{\n{}\n}}\n}}\n",
        o.workload,
        host.join(", "),
        o.data.setup_s.len(),
        o.data.passes.len(),
        o.data.attempted,
        o.data.failed,
        o.tail,
        failures.join(", "),
        metrics.join(",\n"),
        ladder.join(", "),
        passes.join(",\n"),
        fidelity.join(",\n")
    );
    let path = work.join(format!("report-{mode}-{}.json", o.workload));
    match std::fs::write(&path, text) {
        Ok(()) => println!("\nreport written to {}", path.display()),
        Err(e) => eprintln!("warning: report not written to {}: {e}", path.display()),
    }
}

/// The unsigned number after `"name":` in flat-enough JSON: the program's
/// `--metrics-out` file, or an object of this benchmark's result line.
pub fn json_number(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ' '))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The value of metric `name` on a result line.
pub fn result_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{");
    json_number(&line[line.find(&key)? + key.len()..], "value")
}

/// Two sets of `runs` end-to-end runs per workload on this build, each run
/// a process of its own with another seed, compared the way the driver
/// compares them: spread of each set against the bound (except `setup_s`),
/// second median against the first.
pub fn check_repeat(names: &[&'static str], runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut verdicts = Vec::new();
    let mut failed_runs = 0;
    for &name in names {
        // sets[set][metric] = one value per run
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for (set, values) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let run_seed = seed + (set * runs + r) as u64;
                let args = [
                    "--workload",
                    name,
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ]
                .map(String::from);
                let text = crate::run_self(&args).unwrap_or_else(|why| format!("FAILED {why}\n"));
                let line = text.lines().last().unwrap_or("");
                if !line.starts_with("{\"correct\": true") {
                    failed_runs += 1;
                    for l in text.lines().filter(|l| l.contains("FAILED")) {
                        println!("  {name} seed {run_seed}: {}", l.trim());
                    }
                }
                for (slot, (metric, ..)) in values.iter_mut().zip(END_TO_END) {
                    slot.push(result_metric(line, metric).unwrap_or(f64::NAN));
                }
                eprintln!("  {name}: set {} run {}/{runs} done", set + 1, r + 1);
            }
        }
        println!("\n== check-repeat: {name} ({runs} runs per set) ==");
        println!(
            "  {:<14} {:<7} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
            "metric", "better", "median 1", "median 2", "spread1", "spread2", "worse", "bound"
        );
        for (i, (metric, _, better, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let verdict = compare(*better, *bound, a, b, *metric != "setup_s");
            println!(
                "  {metric:<14} {:<7} {:>12.5} {:>12.5} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.0}%  {}",
                better.as_str(),
                median(a),
                median(b),
                100.0 * spread(a).unwrap_or(f64::NAN),
                100.0 * spread(b).unwrap_or(f64::NAN),
                100.0 * worse_by(*better, median(a), median(b)),
                100.0 * bound,
                verdict.as_str()
            );
            if let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) {
                println!("  {:<14} quartiles {qa:.5?} | {qb:.5?}", "");
            }
            verdicts.push(verdict);
        }
    }
    let bad = verdicts.iter().filter(|v| **v != Verdict::Agree).count();
    println!(
        "\n{} of {} metric × workload pairs agree; {failed_runs} run(s) with failed operations",
        verdicts.len() - bad,
        verdicts.len()
    );
    if bad > 0 || failed_runs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_are_found_by_name() {
        let text = "{\n  \"tm.commits\": 40,\n  \"tm.cycles.total\": 193885,\n \"x\": 1.5 }";
        assert_eq!(json_number(text, "tm.commits"), Some(40.0));
        assert_eq!(json_number(text, "tm.cycles.total"), Some(193885.0));
        assert_eq!(json_number(text, "x"), Some(1.5));
        assert_eq!(json_number(text, "tm.squashes"), None);
    }

    #[test]
    fn result_lines_round_trip_their_metrics() {
        let metrics = vec![
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.8127,
                samples: 3,
            },
            Metric {
                name: "wall_s".into(),
                unit: "s",
                value: 1.25e-3,
                samples: 9,
            },
        ];
        let line = result_line(10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert_eq!(result_metric(&line, "setup_s"), Some(0.8127));
        assert_eq!(result_metric(&line, "wall_s"), Some(0.00125));
        assert_eq!(result_metric(&line, "cpu_s"), None);
        assert!(result_line(10, 1, &metrics).starts_with("{\"correct\": false"));
    }
}
