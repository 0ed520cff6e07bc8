//! Trace operation types consumed by the TM and TLS runtimes.

use bulk_mem::Addr;
use std::fmt;

/// A structural defect in a thread or task trace, reported by
/// [`ThreadTrace::validate`] / [`TaskTrace::validate`]. Machine
/// construction surfaces this as a typed error instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An `End` with no open transaction.
    UnmatchedEnd {
        /// Index of the offending op.
        op: usize,
    },
    /// Transactions still open at the end of the trace.
    UnclosedTransactions {
        /// How many `Begin`s were never closed.
        open: usize,
    },
    /// Nesting exceeded the runtime's supported depth.
    NestingTooDeep {
        /// The depth that was reached.
        depth: usize,
        /// Index of the `Begin` that exceeded it.
        op: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A task trace with more than one `Spawn`.
    MultipleSpawns {
        /// Index of the first `Spawn`.
        first: usize,
        /// Index of the offending second `Spawn`.
        second: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnmatchedEnd { op } => write!(f, "unmatched End at op {op}"),
            TraceError::UnclosedTransactions { open } => {
                write!(f, "{open} unclosed transactions at end of trace")
            }
            TraceError::NestingTooDeep { depth, op, max } => {
                write!(f, "nesting depth {depth} at op {op} exceeds supported maximum {max}")
            }
            TraceError::MultipleSpawns { first, second } => {
                write!(f, "second Spawn at op {second} (first at op {first})")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One operation of a TM thread trace. Accesses between [`TmOp::Begin`]
/// and its matching [`TmOp::End`] are transactional; `Begin` nests
/// (closed nesting, paper §6.2.1). Accesses outside any transaction are
/// non-speculative and send individual invalidations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmOp {
    /// Begin a (possibly nested) transaction.
    Begin,
    /// End the innermost open transaction; ending the outermost commits.
    End,
    /// Load from a byte address.
    Read(Addr),
    /// Store to a byte address.
    Write(Addr),
    /// `n` non-memory instructions.
    Compute(u32),
}

/// The full operation sequence of one TM thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Operations in program order.
    pub ops: Vec<TmOp>,
}

impl ThreadTrace {
    /// Validates nesting: every `End` has a matching `Begin`, all
    /// transactions are closed by the end of the trace, and transactional
    /// nesting never exceeds `max_depth`.
    ///
    /// Returns the number of broadcasts the trace implies — one per
    /// outermost `End` (a commit) and one per non-transactional `Write`
    /// (an individual invalidation) — so a runtime that sizes its bus from
    /// the trace reads it once.
    pub fn validate(&self, max_depth: usize) -> Result<usize, TraceError> {
        let (mut depth, mut broadcasts) = (0usize, 0usize);
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                TmOp::Begin => {
                    depth += 1;
                    if depth > max_depth {
                        return Err(TraceError::NestingTooDeep { depth, op: i, max: max_depth });
                    }
                }
                TmOp::End => {
                    depth = depth.checked_sub(1).ok_or(TraceError::UnmatchedEnd { op: i })?;
                    broadcasts += usize::from(depth == 0);
                }
                TmOp::Write(_) => broadcasts += usize::from(depth == 0),
                _ => {}
            }
        }
        if depth != 0 {
            return Err(TraceError::UnclosedTransactions { open: depth });
        }
        Ok(broadcasts)
    }

    /// Number of transactional memory accesses (within any transaction).
    pub fn tx_access_count(&self) -> usize {
        let mut depth = 0usize;
        let mut n = 0usize;
        for op in &self.ops {
            match op {
                TmOp::Begin => depth += 1,
                TmOp::End => depth -= 1,
                TmOp::Read(_) | TmOp::Write(_) if depth > 0 => n += 1,
                _ => {}
            }
        }
        n
    }
}

/// A TM workload: one trace per thread/processor.
#[derive(Debug, Clone, Default)]
pub struct TmWorkload {
    /// Workload name (the paper's application name it stands in for).
    pub name: String,
    /// One trace per thread.
    pub threads: Vec<ThreadTrace>,
}

/// One operation of a TLS task trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsOp {
    /// Load from a byte address.
    Read(Addr),
    /// Store to a byte address.
    Write(Addr),
    /// `n` non-memory instructions.
    Compute(u32),
    /// Spawn the successor task. At most one per task; tasks without an
    /// explicit `Spawn` spawn their successor at completion.
    Spawn,
}

/// The operations of one TLS task, in sequential program order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskTrace {
    /// Operations in program order.
    pub ops: Vec<TlsOp>,
}

impl TaskTrace {
    /// Validates the task shape: at most one `Spawn` per task (a task
    /// spawns at most its one successor, paper §2.2).
    pub fn validate(&self) -> Result<(), TraceError> {
        // Counting has no early exit, so it runs branch-free over the ops;
        // only a defective task is read again, to name the offending pair.
        let is_spawn = |op: &TlsOp| matches!(op, TlsOp::Spawn);
        if self.ops.iter().filter(|op| is_spawn(op)).count() > 1 {
            let mut spawns = self.ops.iter().enumerate().filter(|(_, op)| is_spawn(op));
            if let (Some((first, _)), Some((second, _))) = (spawns.next(), spawns.next()) {
                return Err(TraceError::MultipleSpawns { first, second });
            }
        }
        Ok(())
    }

    /// Index of the `Spawn` op, if present.
    pub fn spawn_index(&self) -> Option<usize> {
        self.ops.iter().position(|op| matches!(op, TlsOp::Spawn))
    }

    /// Total instruction count (memory ops count as one instruction each).
    pub fn instr_count(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TlsOp::Compute(n) => u64::from(*n),
                TlsOp::Spawn => 1,
                _ => 1,
            })
            .sum()
    }
}

/// A TLS workload: the ordered task list of a sequential program.
#[derive(Debug, Clone, Default)]
pub struct TlsWorkload {
    /// Workload name (the SPECint application it stands in for).
    pub name: String,
    /// Tasks in sequential order.
    pub tasks: Vec<TaskTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_flat_and_nested() {
        let t = ThreadTrace {
            ops: vec![
                TmOp::Begin,
                TmOp::Read(Addr::new(0)),
                TmOp::Begin,
                TmOp::Write(Addr::new(4)),
                TmOp::End,
                TmOp::End,
            ],
        };
        assert!(t.validate(2).is_ok());
        assert!(t.validate(1).is_err());
    }

    #[test]
    fn validate_rejects_unbalanced() {
        assert!(ThreadTrace { ops: vec![TmOp::End] }.validate(4).is_err());
        assert!(ThreadTrace { ops: vec![TmOp::Begin] }.validate(4).is_err());
    }

    #[test]
    fn tx_access_count_ignores_non_tx() {
        let t = ThreadTrace {
            ops: vec![
                TmOp::Read(Addr::new(0)), // non-tx
                TmOp::Begin,
                TmOp::Write(Addr::new(4)),
                TmOp::End,
            ],
        };
        assert_eq!(t.tx_access_count(), 1);
    }

    #[test]
    fn validate_reports_typed_errors() {
        let t = ThreadTrace { ops: vec![TmOp::End] };
        assert_eq!(t.validate(4), Err(TraceError::UnmatchedEnd { op: 0 }));
        let t = ThreadTrace { ops: vec![TmOp::Begin, TmOp::Begin, TmOp::End] };
        assert_eq!(t.validate(4), Err(TraceError::UnclosedTransactions { open: 1 }));
        assert_eq!(
            t.validate(1),
            Err(TraceError::NestingTooDeep { depth: 2, op: 1, max: 1 })
        );
    }

    #[test]
    fn task_validate_rejects_double_spawn() {
        let t = TaskTrace { ops: vec![TlsOp::Spawn, TlsOp::Compute(1), TlsOp::Spawn] };
        assert_eq!(t.validate(), Err(TraceError::MultipleSpawns { first: 0, second: 2 }));
        assert!(TaskTrace { ops: vec![TlsOp::Spawn] }.validate().is_ok());
        assert!(TaskTrace::default().validate().is_ok());
    }

    /// `ThreadTrace::validate` before it counted: nesting only.
    fn validate_nesting_only(ops: &[TmOp], max_depth: usize) -> Result<(), TraceError> {
        let mut depth = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match op {
                TmOp::Begin => {
                    depth += 1;
                    if depth > max_depth {
                        return Err(TraceError::NestingTooDeep { depth, op: i, max: max_depth });
                    }
                }
                TmOp::End => {
                    depth = depth.checked_sub(1).ok_or(TraceError::UnmatchedEnd { op: i })?;
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(TraceError::UnclosedTransactions { open: depth });
        }
        Ok(())
    }

    /// The second pass the par runtime used to make over a valid thread:
    /// one broadcast per outer `End`, one per non-transactional `Write`.
    fn broadcasts_of(ops: &[TmOp]) -> usize {
        let mut depth = 0usize;
        let mut n = 0usize;
        for op in ops {
            match op {
                TmOp::Begin => depth += 1,
                TmOp::End => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        n += 1;
                    }
                }
                TmOp::Write(_) if depth == 0 => n += 1,
                _ => {}
            }
        }
        n
    }

    #[test]
    fn one_pass_validates_and_counts_like_the_two_it_replaced() {
        use bulk_rng::check::run;
        use bulk_rng::{prop_assert, prop_assert_eq};

        let mut seen = [0u32; 4]; // Ok, UnmatchedEnd, Unclosed, TooDeep
        run("one_pass_validates_and_counts_like_the_two_it_replaced", 512, |g| {
            // Well-formed threads (every `End` matched, all closed) and
            // wild ones that lean towards opening, so every defect occurs.
            let well_formed = g.bool();
            let max_depth = [1, 2, 8][g.in_range(0..3usize)];
            let mut ops = Vec::new();
            let mut depth = 0usize;
            for _ in 0..g.in_range(0..48usize) {
                let a = Addr::new(g.in_range(0..64u32) * 4);
                let op = match g.in_range(0..10u32) {
                    0..=2 if !well_formed || depth < max_depth => TmOp::Begin,
                    3..=4 if !well_formed || depth > 0 => TmOp::End,
                    5..=6 => TmOp::Write(a),
                    7 => TmOp::Compute(3),
                    _ => TmOp::Read(a),
                };
                match op {
                    TmOp::Begin => depth += 1,
                    TmOp::End => depth = depth.saturating_sub(1),
                    _ => {}
                }
                ops.push(op);
            }
            if well_formed {
                ops.extend(std::iter::repeat_n(TmOp::End, depth));
            }
            let expected = validate_nesting_only(&ops, max_depth).map(|()| broadcasts_of(&ops));
            prop_assert!(!well_formed || expected.is_ok(), "generator: {ops:?}");
            seen[match expected {
                Ok(_) => 0,
                Err(TraceError::UnmatchedEnd { .. }) => 1,
                Err(TraceError::UnclosedTransactions { .. }) => 2,
                Err(_) => 3,
            }] += 1;
            prop_assert_eq!(ThreadTrace { ops }.validate(max_depth), expected);
            Ok(())
        });
        assert!(seen.iter().all(|&n| n > 0), "every outcome must occur: {seen:?}");
    }

    #[test]
    fn task_validate_names_the_first_two_spawns_as_the_early_exit_loop_did() {
        use bulk_rng::check::run;
        use bulk_rng::prop_assert_eq;

        fn early_exit(ops: &[TlsOp]) -> Result<(), TraceError> {
            let mut first = None;
            for (i, op) in ops.iter().enumerate() {
                if matches!(op, TlsOp::Spawn) {
                    match first {
                        None => first = Some(i),
                        Some(f) => return Err(TraceError::MultipleSpawns { first: f, second: i }),
                    }
                }
            }
            Ok(())
        }

        let mut rejected = 0;
        run("task_validate_names_the_first_two_spawns_as_the_early_exit_loop_did", 256, |g| {
            let mut ops = g.vec_of(0..40, |g| match g.in_range(0..3u32) {
                0 => TlsOp::Read(Addr::new(g.in_range(0..256u32) * 4)),
                1 => TlsOp::Write(Addr::new(g.in_range(0..256u32) * 4)),
                _ => TlsOp::Compute(g.in_range(1..9u32)),
            });
            for _ in 0..g.in_range(0..4u32) {
                ops.insert(g.in_range(0..ops.len() + 1), TlsOp::Spawn);
            }
            let expected = early_exit(&ops);
            rejected += u32::from(expected.is_err());
            prop_assert_eq!(TaskTrace { ops }.validate(), expected);
            Ok(())
        });
        assert!((64..192).contains(&rejected), "2–3 spawns in about half the cases: {rejected}");
    }

    #[test]
    fn spawn_index_and_instr_count() {
        let t = TaskTrace {
            ops: vec![
                TlsOp::Write(Addr::new(0)),
                TlsOp::Compute(10),
                TlsOp::Spawn,
                TlsOp::Read(Addr::new(4)),
            ],
        };
        assert_eq!(t.spawn_index(), Some(2));
        assert_eq!(t.instr_count(), 13);
        assert_eq!(TaskTrace::default().spawn_index(), None);
    }
}
