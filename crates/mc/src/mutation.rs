//! Seeded protocol bugs: the model checker's teeth.
//!
//! A checker that has never failed proves nothing. Each [`Mutation`]
//! disables exactly one of the protocol's defense mechanisms; the
//! mutation suite asserts that the explorer produces a minimal
//! counterexample for every seeded bug while the unmutated protocol
//! passes exhaustively at the same bounds. [`Mutation::NoFencing`] is the
//! deliberate exception: it removes a mechanism the other two layers make
//! redundant at these bounds, and the suite asserts *no* counterexample —
//! the model proving a redundancy instead of a bug.

use std::fmt;

/// A protocol bug injected into the model's transition relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mutation {
    /// The correct protocol.
    #[default]
    None,
    /// Receivers apply every delivery without consulting their cursor.
    /// Any duplicated or replayed delivery then applies a W_C twice —
    /// the bug the machines avoid by applying only round 0 of a bus
    /// occupancy.
    SkipCursor,
    /// The failover arbiter replays the in-flight message without
    /// re-stamping it. The replay carries the dead epoch, every receiver
    /// fences it, and receivers the original never reached lose the
    /// commit.
    ReplayWithoutRestamp,
    /// The failover arbiter forgets the in-flight message entirely:
    /// receivers the original never reached lose the commit.
    SkipReplay,
    /// Receivers apply deliveries stamped by dead epochs instead of
    /// fencing them. This is *safe* — the one bus occupancy per broadcast
    /// plus the cursor mask it — and the suite asserts the explorer finds
    /// no counterexample, demonstrating a discharged redundancy.
    NoFencing,
}

impl Mutation {
    /// The seeded bugs, each of which must yield a counterexample.
    pub fn seeded_bugs() -> [Mutation; 3] {
        [Mutation::SkipCursor, Mutation::ReplayWithoutRestamp, Mutation::SkipReplay]
    }

    /// Stable kebab-case name (CLI argument and artifact file names).
    pub fn as_str(&self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipCursor => "skip-cursor",
            Mutation::ReplayWithoutRestamp => "replay-without-restamp",
            Mutation::SkipReplay => "skip-replay",
            Mutation::NoFencing => "no-fencing",
        }
    }

    /// Parses a kebab-case mutation name.
    pub fn parse(s: &str) -> Option<Mutation> {
        Some(match s {
            "none" => Mutation::None,
            "skip-cursor" => Mutation::SkipCursor,
            "replay-without-restamp" => Mutation::ReplayWithoutRestamp,
            "skip-replay" => Mutation::SkipReplay,
            "no-fencing" => Mutation::NoFencing,
            _ => return None,
        })
    }

    /// Whether the suite expects the explorer to find a counterexample.
    pub fn expects_counterexample(&self) -> bool {
        !matches!(self, Mutation::None | Mutation::NoFencing)
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in [
            Mutation::None,
            Mutation::SkipCursor,
            Mutation::ReplayWithoutRestamp,
            Mutation::SkipReplay,
            Mutation::NoFencing,
        ] {
            assert_eq!(Mutation::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mutation::parse("bogus"), None);
    }

    #[test]
    fn seeded_bugs_all_expect_counterexamples() {
        assert!(Mutation::seeded_bugs().iter().all(Mutation::expects_counterexample));
        assert!(!Mutation::None.expects_counterexample());
        assert!(!Mutation::NoFencing.expects_counterexample());
    }
}
