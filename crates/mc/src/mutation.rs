//! Seeded protocol bugs: the model checker's teeth.
//!
//! A checker that has never failed proves nothing. Each [`Mutation`]
//! disables exactly one of the protocol's two mechanisms; the mutation
//! suite asserts that the explorer produces a minimal certified
//! counterexample for every seeded bug while the unmutated protocol
//! passes exhaustively at the same bounds.

use std::fmt;

/// A protocol bug injected into the model's transition relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mutation {
    /// The correct protocol.
    #[default]
    None,
    /// Receivers apply every delivery without consulting their cursor.
    /// Any duplicated delivery then applies a W_C twice — the bug the
    /// machines avoid by applying a broadcast once per receiver.
    SkipCursor,
    /// The arbiter grants the next broadcast while a copy of the current
    /// one is still in flight. A receiver that sees the later broadcast
    /// first moves its cursor past the earlier one and drops it: a lost
    /// commit.
    GrantBeforeDrain,
}

impl Mutation {
    /// The seeded bugs, each of which must yield a counterexample.
    pub fn seeded_bugs() -> [Mutation; 2] {
        [Mutation::SkipCursor, Mutation::GrantBeforeDrain]
    }

    /// Stable kebab-case name (CLI argument and artifact file names).
    pub fn as_str(&self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipCursor => "skip-cursor",
            Mutation::GrantBeforeDrain => "grant-before-drain",
        }
    }

    /// Parses a kebab-case mutation name.
    pub fn parse(s: &str) -> Option<Mutation> {
        Some(match s {
            "none" => Mutation::None,
            "skip-cursor" => Mutation::SkipCursor,
            "grant-before-drain" => Mutation::GrantBeforeDrain,
            _ => return None,
        })
    }

    /// Whether the suite expects the explorer to find a counterexample.
    pub fn expects_counterexample(&self) -> bool {
        *self != Mutation::None
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
        for m in [Mutation::None, Mutation::SkipCursor, Mutation::GrantBeforeDrain] {
            assert_eq!(Mutation::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mutation::parse("bogus"), None);
    }

    #[test]
    fn seeded_bugs_all_expect_counterexamples() {
        assert!(Mutation::seeded_bugs().iter().all(Mutation::expects_counterexample));
        assert!(!Mutation::None.expects_counterexample());
    }
}
