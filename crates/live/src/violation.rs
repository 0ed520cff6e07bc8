//! Typed liveness violations, the forward-progress analogue of
//! `bulk_chaos::InvariantViolation`.
//!
//! An invariant violation means the machine computed something *wrong*; a
//! liveness violation means the machine stopped computing anything *useful*.
//! Both carry enough context to replay the run (`BULK_CHAOS_SEED`) and are
//! surfaced by the CLI as a nonzero-exit diagnostic.

use std::fmt;

/// The classes of forward-progress failure the watchdog distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LivenessKind {
    /// Two (or more) threads keep squashing each other in a cycle: the same
    /// unordered signature pair alternates squasher and victim for a
    /// configured number of consecutive rounds without an intervening
    /// commit. This is the Fig. 12(a) EagerNaive ping-pong, detected
    /// instead of merely demonstrated.
    Livelock,
    /// One thread makes no commit while the rest of the machine commits
    /// past it: its commit age (commits elsewhere since its own last
    /// commit) exceeds the configured bound.
    Starvation,
    /// The machine as a whole stops committing: no thread commits for a
    /// configured number of cycles even though work remains.
    GlobalStall,
    /// A daemon-managed job exceeded its wall-clock budget: the `bulkd`
    /// watchdog reaped the run and marked the *job* failed, leaving the
    /// daemon and its other jobs untouched.
    JobTimeout,
}

impl LivenessKind {
    /// Stable kebab-case name, usable as an event-stream tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            LivenessKind::Livelock => "livelock",
            LivenessKind::Starvation => "starvation",
            LivenessKind::GlobalStall => "global-stall",
            LivenessKind::JobTimeout => "job-timeout",
        }
    }
}

impl fmt::Display for LivenessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A detected forward-progress failure, with replay context.
///
/// Mirrors the shape of `bulk_chaos::InvariantViolation` so the CLI and
/// the soak tests can treat both failure families uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessViolation {
    /// Which progress property failed.
    pub kind: LivenessKind,
    /// Scheme label of the run (e.g. `"tm/eager-naive"`).
    pub scheme: String,
    /// The starving / livelocked thread, when one is identifiable.
    pub thread: Option<usize>,
    /// Cycle at which the watchdog tripped.
    pub cycle: u64,
    /// Chaos seed of the run, if fault injection was armed.
    pub seed: Option<u64>,
    /// Human-readable diagnosis, including the detected squash cycle for
    /// [`LivenessKind::Livelock`].
    pub detail: String,
}

impl fmt::Display for LivenessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "liveness violation [{}] scheme={} cycle={}",
            self.kind, self.scheme, self.cycle
        )?;
        if let Some(t) = self.thread {
            write!(f, " thread={t}")?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(seed) = self.seed {
            write!(f, " (replay: BULK_CHAOS_SEED={seed})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_thread_and_replay_seed() {
        let v = LivenessViolation {
            kind: LivenessKind::Livelock,
            scheme: "tm/eager-naive".into(),
            thread: Some(1),
            cycle: 420,
            seed: Some(7),
            detail: "threads 0 and 1 squashed each other 12 times".into(),
        };
        let s = v.to_string();
        assert!(s.contains("[livelock]"));
        assert!(s.contains("thread=1"));
        assert!(s.contains("cycle=420"));
        assert!(s.contains("BULK_CHAOS_SEED=7"));
    }

    #[test]
    fn kinds_have_kebab_names() {
        assert_eq!(LivenessKind::Livelock.to_string(), "livelock");
        assert_eq!(LivenessKind::Starvation.to_string(), "starvation");
        assert_eq!(LivenessKind::GlobalStall.to_string(), "global-stall");
        assert_eq!(LivenessKind::JobTimeout.to_string(), "job-timeout");
    }
}
