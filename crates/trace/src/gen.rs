//! Synthetic workload generators.
//!
//! The paper ran SPECint2000 binaries under a TLS compiler and traced Java
//! applications under Jikes RVM — neither of which is reproducible here.
//! These generators produce task/transaction address streams whose
//! *footprints and sharing behaviour* are calibrated to what the paper
//! itself reports per application (Tables 6 and 7): read/write set sizes,
//! fine-grain cross-task sharing (live-ins), true-dependence rates, hot-set
//! contention, transaction nesting, and the SPECjbb2000 read-modify-write
//! pattern of Fig. 12. Generation is fully deterministic given a seed.

use bulk_mem::Addr;
use bulk_rng::{Rng, SeedableRng, SmallRng};

use crate::{TaskTrace, ThreadTrace, TlsOp, TlsWorkload, TmOp, TmWorkload};

// Synthetic addresses live entirely in address bits that the default S14
// signature covers under the paper's TM and TLS permutations (skipping the
// "hole" bits the chunks do not see: TLS word bits 10 and 20, TM line bit
// 14). Real program footprints span megabytes and vary those bits richly;
// to mimic that, read-mostly lines are scattered by a bijective hash,
// while written lines combine a *designed cache set* (so task versions
// co-resident on a processor do not collide under the Set Restriction)
// with an independently scrambled tag. Line-address bit 17 separates the
// two spaces.

/// Usable line-address bit positions: {0-5, 7-13, 15, 17}.
fn place_bits(v: u32) -> u32 {
    let mut out = v & 0x3f; // line bits 0-5 (the cache-set bits)
    out |= (v & 0x1fc0) << 1; // -> line bits 7-13
    out |= (v & 0x2000) << 2; // -> line bit 15
    out
}

/// Maps a compact 14-bit index to a scattered read-region line
/// (line bit 17 clear).
pub fn read_line(idx: u32) -> bulk_mem::LineAddr {
    debug_assert!(idx < 1 << 14);
    bulk_mem::LineAddr::new(place_bits(idx.wrapping_mul(10837) & 0x3fff))
}

/// Maps a written-region unit to a line in the designed cache `set`
/// (line bit 17 set; tags scrambled so nearby units differ in high bits).
pub fn written_line(unit: u32, set: u32) -> bulk_mem::LineAddr {
    debug_assert!(unit < 256);
    let tag = (unit * 37) % 256;
    bulk_mem::LineAddr::new(place_bits((set & 0x3f) | (tag << 6)) | 1 << 17)
}

fn read_word(idx: u32, w: u32) -> Addr {
    Addr::new((read_line(idx).raw() << 6) + (w % 16) * 4)
}

fn written_word(unit: u32, set: u32, w: u32) -> Addr {
    Addr::new((written_line(unit, set).raw() << 6) + (w % 16) * 4)
}

/// A TM line address built from 64-line allocation chunks: a 4-bit C1 tag
/// (placed at line bits {6, 9, 11, 17}, all C1 sources under the TM
/// permutation), a 9-bit scrambled C2 tag (at {7, 8, 10, 12, 13, 15, 16,
/// 18, 19}, all C2 sources) and a 6-bit in-chunk line index. Per-thread
/// footprints thus occupy distinct field-value subspaces — as disjoint
/// real heaps do — while the shared hot/heap chunks provide the residual
/// aliasing the paper measures.
fn tm_chunk_line(c1_tag: u32, c2_seq: u32, k: u32) -> bulk_mem::LineAddr {
    debug_assert!(c1_tag < 16 && c2_seq < 512 && k < 64);
    let c2 = (c2_seq * 73) % 512;
    let mut b = k & 0x3f;
    b |= (c1_tag & 1) << 6
        | ((c1_tag >> 1) & 1) << 9
        | ((c1_tag >> 2) & 1) << 11
        | ((c1_tag >> 3) & 1) << 17;
    b |= (c2 & 1) << 7
        | ((c2 >> 1) & 1) << 8
        | ((c2 >> 2) & 1) << 10
        | ((c2 >> 3) & 1) << 12
        | ((c2 >> 4) & 1) << 13
        | ((c2 >> 5) & 1) << 15
        | ((c2 >> 6) & 1) << 16
        | ((c2 >> 7) & 1) << 18
        | ((c2 >> 8) & 1) << 19;
    bulk_mem::LineAddr::new(b)
}

/// TM region `r` line addresses: region 0 is the 512-line hot region,
/// regions 1-8 are per-thread private regions (512 lines), region 9 is a
/// large shared read-only heap (8192 lines) that shares C1 tag space with
/// the hot region.
pub fn tm_region_line(r: u32, line: u32) -> bulk_mem::LineAddr {
    let chunk = line / 64;
    let k = line % 64;
    match r {
        0 => {
            debug_assert!(line < 512);
            tm_chunk_line(8 + chunk, 64 + chunk, k)
        }
        1..=8 => {
            debug_assert!(line < 512);
            // Thread C1 tags 0-7; the hot region and heap use tags 8-15.
            tm_chunk_line(r - 1, (r - 1) * 8 + chunk, k)
        }
        9 => {
            debug_assert!(line < 8192);
            tm_chunk_line(8 + chunk % 8, 72 + chunk, k)
        }
        _ => panic!("unknown TM region {r}"),
    }
}

fn tm_region_word(r: u32, line: u32) -> Addr {
    Addr::new(tm_region_line(r, line).raw() << 6)
}

// Read-region compact-index map.
/// Hot (contended, shared) region: 512 lines.
pub const HOT_IDX: u32 = 0;
/// Cold streaming region (always-miss reads): 7680 lines.
pub const STREAM_IDX: u32 = 512;
/// TM per-thread private regions: 1024 lines per thread.
pub const PRIVATE_IDX: u32 = 8192;

// Written-region unit map (TLS write targets).
/// Per-task 4-line write frames: a ring of 32 frames.
pub const FRAME_UNIT: u32 = 0;
/// Live-in slots (parent→child forwarding): a ring of 64 lines.
pub const LIVEIN_UNIT: u32 = 128;
/// Violation slots (true cross-task dependences): a ring of 48 lines.
pub const VIO_UNIT: u32 = 192;
/// Word-shared lines (fine-grain merge traffic): a ring of 16 lines.
pub const WS_UNIT: u32 = 240;

/// The cache-set lane of TLS task `t`: successive in-flight tasks stay at
/// least 6 sets apart (stride 14 over 64 sets), so the 6 sets a task's
/// write targets occupy never collide with a co-resident task's.
fn task_lane(t: u32) -> u32 {
    (t * 14) % 64
}

fn hot_word(hot_words: u32, rng: &mut SmallRng) -> Addr {
    let w = rng.random_range(0..hot_words);
    read_word(HOT_IDX + w / 16, w % 16)
}

/// Parameters of one synthetic TLS application (one SPECint stand-in).
///
/// `rd_words`/`wr_words`/`live_ins` come straight from the paper's Table 6;
/// the behavioural knobs are tuned so the simulated squash/merge rates land
/// in the paper's reported ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct TlsProfile {
    /// Application name.
    pub name: &'static str,
    /// Number of tasks to generate.
    pub tasks: usize,
    /// Mean non-memory instructions per task.
    pub avg_task_instrs: u32,
    /// Mean read-set size in words (Table 6).
    pub rd_words: f64,
    /// Mean write-set size in words (Table 6).
    pub wr_words: f64,
    /// Words a child reads that its parent wrote pre-spawn (Table 6 dep
    /// set).
    pub live_ins: u32,
    /// Fraction of tasks that actually consume their parent's live-ins.
    pub live_in_prob: f64,
    /// Probability a task writes, late, a word its successor reads early —
    /// a true dependence violation.
    pub violation_prob: f64,
    /// Probability a task writes its word lane of a shared line (exercises
    /// fine-grain word merging, §4.4).
    pub word_share_prob: f64,
    /// Shared hot-region size in words.
    pub hot_words: u32,
    /// Fraction of reads that hit the (warm, read-shared) hot region.
    pub hot_read_frac: f64,
    /// Fraction of reads that stream through cold memory (always miss).
    pub stream_frac: f64,
    /// Probability a task scatters one write into the hot region —
    /// the source of rare cross-task write conflicts and of the paper's
    /// occasional write–write set conflicts.
    pub scatter_write_prob: f64,
    /// Relative spread of task sizes (0 = uniform).
    pub imbalance: f64,
}

impl TlsProfile {
    /// Generates the deterministic workload for this profile.
    pub fn generate(&self, seed: u64) -> TlsWorkload {
        let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(self.name));
        let mut tasks = Vec::with_capacity(self.tasks);
        for i in 0..self.tasks as u32 {
            tasks.push(self.generate_task(i, &mut rng));
        }
        TlsWorkload { name: self.name.to_string(), tasks }
    }

    fn generate_task(&self, i: u32, rng: &mut SmallRng) -> TaskTrace {
        let mut ops = Vec::new();
        let scale = 1.0 + self.imbalance * (rng.random::<f64>() * 2.0 - 1.0);
        let instrs = ((self.avg_task_instrs as f64) * scale.max(0.2)) as u32;

        // Write targets are clustered (frame-like, as real write sets are)
        // and placed in the task's set lane, so versions co-resident on a
        // processor never dirty the same cache set by construction —
        // leaving write–write set conflicts to the rare scattered hot and
        // word-shared writes, as in the paper's Table 6.
        let livein_word =
            |t: u32, k: u32| written_word(LIVEIN_UNIT + t % 64, (task_lane(t) + 4) % 64, k);
        let vio_word = |t: u32| written_word(VIO_UNIT + t % 48, (task_lane(t) + 5) % 64, 0);
        let frame_word = |t: u32, w: u32| {
            let w = w % 64;
            written_word(
                FRAME_UNIT + 4 * (t % 32) + w / 16,
                (task_lane(t) + w / 16) % 64,
                w % 16,
            )
        };

        // --- Pre-spawn: produce live-ins for the child. ---
        ops.push(TlsOp::Compute(instrs / 8));
        for k in 0..self.live_ins {
            ops.push(TlsOp::Write(livein_word(i, k)));
        }
        ops.push(TlsOp::Spawn);

        // --- Post-spawn body. ---
        // Consume the parent's live-ins early (fine-grain sharing).
        let consumes = i > 0 && rng.random::<f64>() < self.live_in_prob;
        if consumes {
            for k in 0..self.live_ins {
                ops.push(TlsOp::Read(livein_word(i - 1, k)));
            }
        }
        // Early read of the violation slot the predecessor may write late.
        if i > 0 {
            ops.push(TlsOp::Read(vio_word(i - 1)));
        }

        // The 1.4 factor compensates for footprint-set deduplication of
        // repeated hot-region and own-frame reads.
        let body_reads =
            ((poisson_ish(self.rd_words, rng) as f64 * 1.4) as u32)
                .saturating_sub(self.live_ins + 1);
        let body_writes = (poisson_ish(self.wr_words, rng) as u32)
            .saturating_sub(self.live_ins)
            .max(1);
        let accesses = body_reads + body_writes;
        let chunk = instrs / (accesses + 2);

        // Writes first: clustered into the task's frame, so later frame
        // reads hit locally (write-then-read locality).
        let mut frame_next = 0u32;
        for w in 0..body_writes {
            ops.push(TlsOp::Compute(chunk));
            if w == 0 && rng.random::<f64>() < self.word_share_prob {
                // This task's word lane of a line shared with its
                // neighbour task: exercises word merging (§4.4).
                let pair = i / 2;
                let lane = (i % 2) * 8 + (i / 64) % 8;
                ops.push(TlsOp::Write(written_word(
                    WS_UNIT + pair % 16,
                    (pair * 14 + 7) % 64,
                    lane,
                )));
            } else if rng.random::<f64>() < self.scatter_write_prob {
                ops.push(TlsOp::Write(hot_word(self.hot_words, rng)));
            } else {
                ops.push(TlsOp::Write(frame_word(i, frame_next)));
                frame_next += 1;
            }
        }
        let mut stream_next = 0u32;
        for _ in 0..body_reads {
            ops.push(TlsOp::Compute(chunk));
            let x: f64 = rng.random();
            if x < self.hot_read_frac {
                ops.push(TlsOp::Read(hot_word(self.hot_words, rng)));
            } else if x < self.hot_read_frac + self.stream_frac {
                // Fresh line every time: a compulsory miss.
                ops.push(TlsOp::Read(read_word(
                    STREAM_IDX + (i % 960) * 8 + stream_next % 8,
                    stream_next / 8,
                )));
                stream_next += 1;
            } else {
                // Re-read the task's own frame (hits after the writes).
                let w = rng.random_range(0..frame_next.max(1));
                ops.push(TlsOp::Read(frame_word(i, w)));
            }
        }

        // Late write creating a true dependence for the successor.
        if rng.random::<f64>() < self.violation_prob {
            ops.push(TlsOp::Write(vio_word(i)));
        }
        ops.push(TlsOp::Compute(instrs / 8));
        // A long workload keeps every task: hand back the growth slack
        // (a quarter of a 40,000-task trace otherwise).
        ops.shrink_to_fit();
        TaskTrace { ops }
    }
}

/// Parameters of one synthetic TM application (one Java-workload stand-in).
#[derive(Debug, Clone, PartialEq)]
pub struct TmProfile {
    /// Application name.
    pub name: &'static str,
    /// Number of threads (the paper's TM machine has 8 processors).
    pub threads: usize,
    /// Transactions per thread.
    pub txs_per_thread: usize,
    /// Mean read-set size in lines (Table 7).
    pub rd_lines: f64,
    /// Mean write-set size in lines (Table 7).
    pub wr_lines: f64,
    /// Shared hot-region size in lines.
    pub hot_lines: u32,
    /// Fraction of reads from the hot region.
    pub hot_read_frac: f64,
    /// Fraction of reads roaming the large shared read-only heap.
    pub heap_read_frac: f64,
    /// Fraction of writes to the hot region (drives conflicts).
    pub hot_write_frac: f64,
    /// Probability a transaction contains one nested inner transaction.
    pub nest_prob: f64,
    /// Probability a transaction performs the Fig. 12 read-modify-write of
    /// a single contended word (the SPECjbb2000 pattern).
    pub rmw_prob: f64,
    /// Non-transactional accesses between transactions.
    pub non_tx_accesses: u32,
    /// Probability a non-transactional access writes a hot line.
    pub non_tx_hot_write: f64,
    /// Mean compute instructions between accesses.
    pub compute_per_access: u32,
    /// Probability of a large (footprint ×4) transaction, to exercise
    /// cache overflow (§6.2.2).
    pub large_tx_prob: f64,
    /// Private working-set size in lines per thread.
    pub private_lines: u32,
}

impl TmProfile {
    /// Generates the deterministic workload for this profile.
    pub fn generate(&self, seed: u64) -> TmWorkload {
        let mut threads = Vec::with_capacity(self.threads);
        for t in 0..self.threads as u32 {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ hash_name(self.name) ^ (u64::from(t) << 32),
            );
            threads.push(self.generate_thread(t, &mut rng));
        }
        TmWorkload { name: self.name.to_string(), threads }
    }

    fn hot_line_word(&self, rng: &mut SmallRng) -> Addr {
        // Half the hot reads go to the small truly-contended subset that
        // hot writes target; the rest roam the whole hot region.
        if rng.random::<f64>() < 0.5 {
            tm_region_word(0, rng.random_range(0..32))
        } else {
            tm_region_word(0, rng.random_range(0..self.hot_lines.min(512)))
        }
    }

    fn contended_line_word(&self, rng: &mut SmallRng) -> Addr {
        tm_region_word(0, rng.random_range(0..32))
    }

    fn private_line_word(&self, t: u32, rng: &mut SmallRng) -> Addr {
        tm_region_word(1 + t, rng.random_range(0..self.private_lines.min(512)))
    }

    fn generate_thread(&self, t: u32, rng: &mut SmallRng) -> ThreadTrace {
        let mut ops = Vec::new();
        for tx in 0..self.txs_per_thread {
            self.generate_tx(t, tx as u32, rng, &mut ops);
            // Non-transactional gap.
            for _ in 0..self.non_tx_accesses {
                ops.push(TmOp::Compute(self.compute_per_access));
                if rng.random::<f64>() < self.non_tx_hot_write {
                    ops.push(TmOp::Write(self.hot_line_word(rng)));
                } else if rng.random::<f64>() < 0.5 {
                    ops.push(TmOp::Read(self.private_line_word(t, rng)));
                } else {
                    ops.push(TmOp::Write(self.private_line_word(t, rng)));
                }
            }
        }
        ThreadTrace { ops }
    }

    fn generate_tx(&self, t: u32, tx: u32, rng: &mut SmallRng, ops: &mut Vec<TmOp>) {
        // Large transactions exercise cache overflow; the normalization
        // keeps the *mean* footprint at the Table 7 targets.
        let norm = 1.0 + self.large_tx_prob * 3.0;
        let mut scale =
            if rng.random::<f64>() < self.large_tx_prob { 4.0 } else { 1.0 } / norm;
        // The SPECjbb2000 pattern of Fig. 12: short transactions that read
        // a contended word early, against long transactions that write it
        // — Eager squashes or stalls the readers at the store, Lazy lets
        // the short readers commit first.
        let rmw = rng.random::<f64>() < self.rmw_prob;
        let reader_role = rmw && tx.is_multiple_of(2);
        if rmw {
            scale *= if reader_role { 0.35 } else { 1.65 };
        }
        let reads = (poisson_ish(self.rd_lines * scale, rng) as u32).max(1);
        let writes = (poisson_ish(self.wr_lines * scale, rng) as u32).max(1);
        let nested = rng.random::<f64>() < self.nest_prob;

        ops.push(TmOp::Begin);
        let rmw_addr = tm_region_word(0, rng.random_range(0..8));
        if rmw {
            if reader_role {
                ops.push(TmOp::Read(rmw_addr));
            } else {
                // The writer holds the contended word for its whole (long)
                // transaction: Eager stalls/squashes every reader arriving
                // in that window; Lazy lets the short readers commit.
                ops.push(TmOp::Write(rmw_addr));
            }
        }
        // Writes cluster into a per-transaction chunk of the private
        // region that rotates across transactions (working-set locality,
        // which also keeps the Set Restriction's safe writebacks at the
        // paper's low per-transaction rates); reads roam the region.
        let chunk_base = (tx.wrapping_mul(37)) % 448;
        let mut next_write = 0u32;
        let mut emit_access = |is_read: bool, ops: &mut Vec<TmOp>, rng: &mut SmallRng| {
            ops.push(TmOp::Compute(self.compute_per_access));
            let a = if is_read {
                let x: f64 = rng.random();
                if x < self.hot_read_frac {
                    self.hot_line_word(rng)
                } else if x < self.hot_read_frac + self.heap_read_frac {
                    tm_region_word(9, rng.random_range(0..8192))
                } else {
                    self.private_line_word(t, rng)
                }
            } else if rng.random::<f64>() < self.hot_write_frac {
                self.contended_line_word(rng)
            } else {
                let line = (chunk_base + next_write) % 512;
                next_write += 1;
                tm_region_word(1 + t, line)
            };
            ops.push(if is_read { TmOp::Read(a) } else { TmOp::Write(a) });
        };

        // Body: interleave reads/writes; optionally open a nested inner
        // transaction covering the middle third.
        let total = reads + writes;
        let inner_begin = total / 3;
        let inner_end = 2 * total / 3;
        let mut writes_left = writes;
        let mut reads_left = reads;
        for k in 0..total {
            if nested && k == inner_begin {
                ops.push(TmOp::Begin);
            }
            // Interleave deterministically in ratio.
            let do_write = writes_left > 0
                && (reads_left == 0 || (k * writes) % total < writes);
            if do_write {
                emit_access(false, ops, rng);
                writes_left -= 1;
            } else {
                emit_access(true, ops, rng);
                reads_left -= 1;
            }
            if nested && k + 1 == inner_end {
                ops.push(TmOp::End);
            }
        }
        ops.push(TmOp::End);
    }
}

/// A cheap integer "Poisson-like" sample: mean `mean`, bounded spread —
/// enough to vary footprints without a stats dependency.
fn poisson_ish(mean: f64, rng: &mut SmallRng) -> u64 {
    let spread = (mean / 2.0).max(1.0);
    let x = mean + (rng.random::<f64>() * 2.0 - 1.0) * spread;
    x.max(0.0).round() as u64
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn tls_generation_is_deterministic() {
        let p = &profiles::tls_profiles()[0];
        let a = p.generate(42);
        let b = p.generate(42);
        assert_eq!(a.tasks, b.tasks);
        let c = p.generate(43);
        assert_ne!(a.tasks, c.tasks);
    }

    #[test]
    fn tls_tasks_have_spawn_and_plausible_footprints() {
        let p = &profiles::tls_profiles()[1]; // crafty: large sets
        let w = p.generate(1);
        assert_eq!(w.tasks.len(), p.tasks);
        let mut rd = 0usize;
        let mut wr = 0usize;
        for t in &w.tasks {
            assert!(t.spawn_index().is_some());
            rd += t.ops.iter().filter(|o| matches!(o, TlsOp::Read(_))).count();
            wr += t.ops.iter().filter(|o| matches!(o, TlsOp::Write(_))).count();
        }
        let rd_avg = rd as f64 / w.tasks.len() as f64;
        let wr_avg = wr as f64 / w.tasks.len() as f64;
        assert!((rd_avg - p.rd_words).abs() < p.rd_words * 0.5, "rd {rd_avg}");
        assert!((wr_avg - p.wr_words).abs() < p.wr_words * 0.5, "wr {wr_avg}");
    }

    #[test]
    fn tm_generation_valid_nesting_and_footprints() {
        for p in profiles::tm_profiles() {
            let w = p.generate(7);
            assert_eq!(w.threads.len(), p.threads);
            for t in &w.threads {
                t.validate(2).unwrap();
                assert!(t.tx_access_count() > 0);
            }
        }
    }

    #[test]
    fn tm_generation_is_deterministic() {
        let p = &profiles::tm_profiles()[0];
        assert_eq!(p.generate(9).threads, p.generate(9).threads);
    }

    #[test]
    fn read_lines_are_injective_and_avoid_hole_bits() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for idx in 0..1u32 << 14 {
            let l = read_line(idx).raw();
            assert!(seen.insert(l), "collision at idx {idx}");
            // Hole bits the default signatures do not cover stay zero:
            // line bit 6 (TLS word bit 10), 14 (TM), 16 (TLS word bit 20),
            // and bit 17 is reserved for written lines.
            assert_eq!(l & (1 << 6 | 1 << 14 | 1 << 16 | 1 << 17), 0, "idx {idx}");
        }
    }

    #[test]
    fn written_lines_are_injective_and_disjoint_from_read_lines() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for unit in 0..256u32 {
            for set in 0..64u32 {
                let l = written_line(unit, set).raw();
                assert!(seen.insert(l), "collision unit={unit} set={set}");
                assert_eq!(l & (1 << 17), 1 << 17);
                assert_eq!(l & 0x3f, set, "set bits pass through");
                assert_eq!(l & (1 << 6 | 1 << 14 | 1 << 16), 0);
            }
        }
    }

    #[test]
    fn written_unit_ranges_are_disjoint() {
        // Evaluated through a function so the check stays a runtime test
        // even though the operands are constants.
        fn check(lo: u32, span: u32, hi: u32) -> bool {
            lo + span <= hi
        }
        assert!(check(FRAME_UNIT, 128, LIVEIN_UNIT));
        assert!(check(LIVEIN_UNIT, 64, VIO_UNIT));
        assert!(check(VIO_UNIT, 48, WS_UNIT));
        assert!(check(WS_UNIT, 16, 256));
        assert!(check(PRIVATE_IDX, 8 * 1024, 1 << 14));
    }

    #[test]
    fn co_resident_task_lanes_stay_apart() {
        for t in 0..256u32 {
            for k in 1..=8u32 {
                let a = task_lane(t) as i32;
                let b = task_lane(t + k) as i32;
                let d = (a - b).rem_euclid(64).min((b - a).rem_euclid(64));
                assert!(d >= 6, "t={t} k={k} lanes {a},{b}");
            }
        }
    }

    #[test]
    fn poisson_ish_is_nonnegative_and_centered() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 2000;
        let mean = 22.0;
        let sum: u64 = (0..n).map(|_| poisson_ish(mean, &mut rng)).sum();
        let avg = sum as f64 / n as f64;
        assert!((avg - mean).abs() < 1.5, "avg {avg}");
    }
}
