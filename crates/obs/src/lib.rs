//! `bulk-obs` — the workspace's observability layer: a metrics registry,
//! a structured event log, and false-positive attribution for bulk
//! disambiguation.
//!
//! The paper's evaluation (§7 of *Bulk Disambiguation of Speculative
//! Threads in Multiprocessors*, Ceze et al., ISCA 2006) is an exercise in
//! measurement: false-positive squash rates as signatures shrink
//! (Figure 9), bandwidth of compressed write signatures (Table 6), and
//! bulk-invalidation overshoot (Table 7). This crate gives the simulated
//! machines the corresponding runtime instruments:
//!
//! - [`metrics`] — [`Counter`]/[`Gauge`]/[`Histogram`] handles in a named
//!   [`Registry`], recorded lock-free on the hot path and serialized as
//!   deterministic JSON.
//! - [`events`] — typed protocol events ([`EventKind`]) with logical
//!   timestamps in a bounded [`EventLog`], exportable as JSONL
//!   (`--events-out` in the CLI).
//! - [`attribution`] — every disambiguation verdict
//!   (`W_C ∩ R_R ∨ W_C ∩ W_R`, paper §2.3) cross-checked against the
//!   exact per-address oracle and classified as a [`Verdict`]; squashes
//!   split into *true-conflict* vs. *aliasing-induced*.
//! - [`trace`] — span-based causal tracing ([`TraceLog`]): protocol
//!   phases as timed [`Span`]s with parent/child structure and causal
//!   links (a commit broadcast records every squash it triggered),
//!   exported as Chrome trace-event JSON (`--trace-out`), plus the
//!   [`cycle_accounting`] reducer folding each timeline into the paper's
//!   Fig. 13 execution-time categories under a conservation audit.
//! - [`hooks`] — pre-registered handle bundles ([`RuntimeObs`],
//!   [`ExpansionObs`], [`OverflowObs`]) so instrumented layers never pay
//!   name lookups per record.
//! - [`prometheus`] — a hand-rolled text-exposition encoder (plus strict
//!   parser) that renders one or more label-scoped registries as a
//!   Prometheus `/metrics` document, the `bulkd` daemon's scrape surface.
//!
//! Everything funnels into one [`Obs`] bundle that the TM/TLS machines,
//! the CLI and the bench runners share. `bulk-obs` sits at the bottom of
//! the dependency graph (no dependencies, not even on `bulk-base`), so
//! any crate in the workspace can be instrumented.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod events;
pub mod hooks;
pub mod metrics;
pub mod prometheus;
pub mod trace;

pub use attribution::{Verdict, VerdictCounters};
pub use events::{Event, EventKind, EventLog, SquashCause, DEFAULT_EVENT_CAPACITY};
pub use hooks::{ExpansionObs, OverflowObs, RuntimeObs};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use prometheus::{encode as prometheus_encode, Scope as PromScope};
pub use trace::{
    cycle_accounting, AccountingViolation, CycleBreakdown, Span, SpanId, SpanKind, SpanOutcome,
    TraceLog, DEFAULT_TRACE_CAPACITY,
};

/// The shared observability bundle: one metrics [`Registry`], one
/// [`EventLog`] and one [`TraceLog`]. Typically wrapped in an `Arc` and
/// handed to every layer of a run.
#[derive(Debug, Default)]
pub struct Obs {
    registry: Registry,
    events: EventLog,
    trace: TraceLog,
}

impl Obs {
    /// Creates a bundle with an empty registry and default-capacity
    /// event and trace rings.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Creates a bundle whose event ring keeps at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Obs {
            registry: Registry::new(),
            events: EventLog::with_capacity(capacity),
            trace: TraceLog::new(),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The span trace.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Copies the event ring's streaming stats into the registry as
    /// gauges — `events.dropped` (events lost to ring wraparound) and
    /// `events.buffer_hwm` (peak buffer residency) — so backpressure is
    /// visible on any scrape/report surface. Idempotent: gauges are set,
    /// not accumulated, so callers can publish before every snapshot.
    pub fn publish_stream_stats(&self) {
        self.registry.gauge("events.dropped").set(self.events.dropped());
        self.registry
            .gauge("events.buffer_hwm")
            .set(self.events.high_water() as u64);
    }
}

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes
/// and control characters; metric names are ASCII in practice, so this is
/// cold-path only).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain.name"), "plain.name");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn obs_bundle_shares_registry_and_events() {
        let obs = Obs::new();
        obs.registry().counter("c").inc();
        obs.events().record(0, 1, EventKind::Escalation);
        assert_eq!(obs.registry().counter_value("c"), 1);
        assert_eq!(obs.events().len(), 1);
    }

    #[test]
    fn publish_stream_stats_sets_gauges_idempotently() {
        let obs = Obs::with_event_capacity(2);
        for i in 0..5 {
            obs.events().record(0, i, EventKind::CtxSwitch);
        }
        obs.publish_stream_stats();
        obs.publish_stream_stats(); // set, not accumulate
        let gauges = obs.registry().gauges();
        assert!(gauges.contains(&("events.dropped".to_string(), 3)));
        assert!(gauges.contains(&("events.buffer_hwm".to_string(), 2)));
    }
}
