//! Figure 15: fraction of false positives in bulk address disambiguations
//! known to carry no dependence, per signature configuration, with error
//! segments over bit permutations.

use bulk_bench::{fmt_f, print_table, sweep_config};
use bulk_sig::table8;

fn main() {
    println!("Figure 15 — False positives per signature configuration (%)\n");
    let trials = 2_000;
    let perms = 4;
    let mut rows = Vec::new();
    let mut prev_size_fp: Vec<(u64, f64)> = Vec::new();
    for spec in table8() {
        let s = sweep_config(*spec, trials, perms, 42);
        prev_size_fp.push((s.full_bits, s.fp_identity));
        rows.push(vec![
            s.id.to_string(),
            s.full_bits.to_string(),
            fmt_f(100.0 * s.fp_identity, 1),
            fmt_f(100.0 * s.fp_best, 1),
            fmt_f(100.0 * s.fp_worst, 1),
        ]);
    }
    print_table(
        &["ID", "Bits", "FP% (no perm)", "FP% best perm", "FP% worst perm"],
        &rows,
    );

    // Shape check: false positives fall as signature size grows.
    let small: f64 = prev_size_fp
        .iter()
        .filter(|(b, _)| *b <= 1024)
        .map(|(_, f)| f)
        .sum::<f64>()
        / prev_size_fp.iter().filter(|(b, _)| *b <= 1024).count() as f64;
    let large: f64 = prev_size_fp
        .iter()
        .filter(|(b, _)| *b >= 4096)
        .map(|(_, f)| f)
        .sum::<f64>()
        / prev_size_fp.iter().filter(|(b, _)| *b >= 4096).count() as f64;
    println!();
    println!(
        "Mean FP small configs (<=1Kbit): {:.1}%   large configs (>=4Kbit): {:.1}%",
        100.0 * small,
        100.0 * large
    );
    println!("Shape check (paper): high for small signatures, quickly decreasing;");
    println!("permutation choice shifts accuracy significantly (error segments).");
}
