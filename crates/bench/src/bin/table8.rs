//! Table 8: the 23 signature configurations — chunk layout, full size, and
//! measured average RLE-compressed size on TM-like commit write sets.

use bulk_bench::{fmt_f, print_table, sweep_config};
use bulk_sig::table8;

/// The paper's average compressed sizes, for reference (bits).
const PAPER_COMPRESSED: &[(&str, u64)] = &[
    ("S1", 254),
    ("S2", 282),
    ("S3", 193),
    ("S4", 290),
    ("S5", 318),
    ("S6", 234),
    ("S7", 266),
    ("S8", 281),
    ("S9", 234),
    ("S10", 334),
    ("S11", 356),
    ("S12", 353),
    ("S13", 353),
    ("S14", 363),
    ("S15", 353),
    ("S16", 396),
    ("S17", 380),
    ("S18", 438),
    ("S19", 469),
    ("S20", 381),
    ("S21", 497),
    ("S22", 497),
    ("S23", 1219),
];

fn main() {
    println!("Table 8 — Signature configurations: size vs compressed size\n");
    let mut rows = Vec::new();
    for spec in table8() {
        let sample = sweep_config(*spec, 400, 0, 42);
        let paper = PAPER_COMPRESSED
            .iter()
            .find(|(id, _)| *id == spec.id)
            .map(|(_, b)| *b)
            .expect("paper row");
        rows.push(vec![
            spec.id.to_string(),
            spec.full_size_bits().to_string(),
            fmt_f(sample.avg_compressed_bits, 0),
            paper.to_string(),
            format!("{:?}", spec.chunks),
        ]);
    }
    print_table(
        &["ID", "Full (bits)", "Compressed (bits)", "Paper compressed", "Chunks"],
        &rows,
    );
    println!("\n  Compressed sizes use Elias-gamma gap RLE over ~22-line write sets");
    println!("  (the paper's RLE variant is unspecified; magnitudes and the");
    println!("  growth-with-size trend are the comparison target).");
}
