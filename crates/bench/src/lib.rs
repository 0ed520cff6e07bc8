//! Experiment harness: runners and formatting that regenerate every table
//! and figure of the paper's evaluation (§7). One binary per artifact:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `fig10`  | TLS speedups: Eager/Lazy/Bulk/BulkNoOverlap |
//! | `fig11`  | TM speedups over Eager: Eager/Lazy/Bulk/Bulk-Partial |
//! | `fig12`  | Eager livelock & eager-only squash patterns |
//! | `table6` | Bulk characterization in TLS |
//! | `table7` | Bulk characterization in TM |
//! | `fig13`  | TM bandwidth breakdown (Inv/Coh/UB/WB/Fill) |
//! | `fig14`  | Commit bandwidth of Bulk normalized to Lazy |
//! | `table8` | Signature catalog: sizes and RLE-compressed sizes |
//! | `fig15`  | False-positive rate per signature configuration |
//!
//! Run them with `cargo run --release -p bulk-bench --bin <name>`.

pub mod fpsweep;
pub mod runners;
pub mod table;

pub use fpsweep::{sweep_config, FpSample};
pub use runners::{run_all_tls, run_all_tm, run_tls_app, run_tm_app, TlsAppResult, TmAppResult};
pub use table::{fmt_f, geomean, print_table};

#[cfg(test)]
mod tests {
    #[test]
    fn geomean_of_ones_is_one() {
        assert!((crate::geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
