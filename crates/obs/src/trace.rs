//! Span-based causal tracing and the Figure-13 cycle-accounting profiler.
//!
//! The metrics registry counts protocol steps and the event log orders
//! them, but neither can *explain* a run: which commit broadcast caused
//! which squash chain, and where each thread's cycles went. This module
//! adds the third observability pillar — traces:
//!
//! - [`TraceLog`] records [`Span`]s: windows of logical time on an
//!   actor's timeline (speculative section, commit arbitration/broadcast,
//!   squash + re-execution overhead, stall/backoff, overflow spill,
//!   checkpoint, context switch). Spans carry parent/child structure and
//!   **causal links**: a squash or bulk-invalidation span records the
//!   commit span that triggered it, and the export lists each commit's
//!   effects, so a squash ping-pong renders as a visible chain.
//! - [`TraceLog::to_chrome_json`] exports the spans as Chrome
//!   trace-event / Perfetto-compatible JSON (`--trace-out` in the CLI).
//!   The export is deterministic: identical runs serialize
//!   byte-identically.
//! - [`cycle_accounting`] folds one track's spans into the paper's
//!   Fig. 13 execution-time categories (useful / squashed / commit /
//!   stall, plus squash-overhead and non-speculative "other"), with a
//!   conservation invariant — per actor, claimed time plus the remainder
//!   equals that actor's total cycles — audited like the PR-2 protocol
//!   invariants.
//!
//! Timestamps are machine cycles, not wall-clock time: the simulated
//! machines are deterministic, and the trace must be too. Trace viewers
//! display them as microseconds, which is harmless.

use std::sync::Mutex;

use crate::json_escape;

/// The protocol phase a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A speculative section: one attempt at a transaction (TM) or task
    /// (TLS), from dispatch to commit-request or squash. The only
    /// non-leaf kind: leaf spans may nest inside its window.
    Section,
    /// Commit arbitration and broadcast: bus wait plus occupancy (and,
    /// under chaos, denied-retry backoff).
    Commit,
    /// Squash overhead: rollback wait plus the re-execution setup cost.
    Squash,
    /// An eager-scheme conflict stall (requester waits for the owner).
    Stall,
    /// A liveness-engine backoff wait before a retry.
    Backoff,
    /// A speculative dirty line spilled to the memory overflow area
    /// (marker: zero duration).
    Spill,
    /// A crash-consistent checkpoint captured at a context switch
    /// (marker: zero duration).
    Checkpoint,
    /// A forced context switch: signature spill plus reload.
    CtxSwitch,
    /// A receiver-side bulk invalidation selected by a committed write
    /// signature (marker: zero duration; causally linked to its commit).
    BulkInvalidate,
    /// A writer-side individual invalidation from a non-speculative
    /// store (marker: zero duration; the cause of any squash it
    /// triggers, the way a commit broadcast causes bulk squashes).
    Invalidate,
}

impl SpanKind {
    /// Stable lowercase tag used as the span name in the Chrome export.
    pub fn tag(self) -> &'static str {
        match self {
            SpanKind::Section => "section",
            SpanKind::Commit => "commit",
            SpanKind::Squash => "squash",
            SpanKind::Stall => "stall",
            SpanKind::Backoff => "backoff",
            SpanKind::Spill => "spill",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::CtxSwitch => "ctx_switch",
            SpanKind::BulkInvalidate => "bulk_invalidate",
            SpanKind::Invalidate => "invalidate",
        }
    }
}

/// How a [`SpanKind::Section`] attempt ended. Leaf spans stay
/// [`SpanOutcome::Pending`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanOutcome {
    /// Not resolved (leaf spans; sections still in flight when the run
    /// aborted). Pending section time falls into the "other" category.
    #[default]
    Pending,
    /// The attempt committed: its cycles were useful work.
    Useful,
    /// The attempt was squashed: its cycles were wasted speculation.
    Squashed,
}

impl SpanOutcome {
    /// Stable lowercase name used in the Chrome export `args`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanOutcome::Pending => "pending",
            SpanOutcome::Useful => "useful",
            SpanOutcome::Squashed => "squashed",
        }
    }
}

/// Handle to a recorded span. Obtained from [`TraceLog::begin`] /
/// [`TraceLog::complete`]; pass it back to [`TraceLog::end`],
/// [`TraceLog::set_outcome`] and [`TraceLog::link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// Sentinel returned when the trace ring is full and the span was
    /// dropped. Every operation on it is a no-op, so instrumentation
    /// sites never need to branch on overflow.
    pub const DROPPED: SpanId = SpanId(u64::MAX);

    /// Whether this is the overflow sentinel.
    pub fn is_dropped(self) -> bool {
        self == SpanId::DROPPED
    }

    /// The raw span index (meaningless for [`SpanId::DROPPED`]).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One recorded span: a window of logical time on an actor's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span ID (also its index in [`TraceLog::spans`]).
    pub id: u64,
    /// Track (machine) the span belongs to; see
    /// [`TraceLog::register_track`].
    pub track: u32,
    /// Actor timeline: thread index (TM) or processor index (TLS). An
    /// actor one past the machine's last timeline index is the bus lane
    /// (TLS commit broadcasts overlap processor execution).
    pub actor: u32,
    /// The protocol phase.
    pub kind: SpanKind,
    /// Start cycle.
    pub start: u64,
    /// End cycle; meaningful only when `ended` is true.
    pub end: u64,
    /// Whether [`TraceLog::end`] closed the span. Open spans export with
    /// zero duration and are clamped to the actor's total during
    /// accounting.
    pub ended: bool,
    /// Enclosing span (a commit's speculative section), if any.
    pub parent: Option<u64>,
    /// The span that causally triggered this one (a squash's commit
    /// broadcast), if any. The spans this one triggered are the spans
    /// whose `cause` it is; the export lists them as its `links`.
    pub cause: Option<u64>,
    /// Section outcome; [`SpanOutcome::Pending`] for leaves.
    pub outcome: SpanOutcome,
    /// Free payload: transaction/task index for sections and commits,
    /// dependence-set size for squashes, lines for bulk invalidations.
    pub detail: u64,
}

#[derive(Debug, Default)]
struct TraceInner {
    tracks: Vec<String>,
    spans: Vec<Span>,
    dropped: u64,
}

/// Default span capacity: comfortably above every stock workload, small
/// enough to bound a runaway run.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// A bounded, shareable log of [`Span`]s.
#[derive(Debug)]
pub struct TraceLog {
    capacity: usize,
    inner: Mutex<TraceInner>,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// Creates a log with the default capacity.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Creates a log holding at most `capacity` spans; further spans are
    /// dropped (and counted) once it is full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceLog { capacity, inner: Mutex::new(TraceInner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().expect("trace log poisoned")
    }

    /// Registers (or finds) the track named `name` — one per machine,
    /// e.g. `"tm."` / `"tls."` — and returns its ID. Tracks become
    /// Chrome-export processes.
    pub fn register_track(&self, name: &str) -> u32 {
        let mut inner = self.lock();
        if let Some(i) = inner.tracks.iter().position(|t| t == name) {
            return i as u32;
        }
        inner.tracks.push(name.to_string());
        (inner.tracks.len() - 1) as u32
    }

    /// Opens a span at `start` on `track`/`actor`. `parent` nests it
    /// under an enclosing span; `detail` is a free payload. Returns
    /// [`SpanId::DROPPED`] (a no-op handle) if the log is full.
    pub fn begin(
        &self,
        track: u32,
        actor: u32,
        kind: SpanKind,
        start: u64,
        parent: Option<SpanId>,
        detail: u64,
    ) -> SpanId {
        let mut inner = self.lock();
        if inner.spans.len() >= self.capacity {
            inner.dropped += 1;
            return SpanId::DROPPED;
        }
        let id = inner.spans.len() as u64;
        inner.spans.push(Span {
            id,
            track,
            actor,
            kind,
            start,
            end: start,
            ended: false,
            parent: parent.filter(|p| !p.is_dropped()).map(SpanId::raw),
            cause: None,
            outcome: SpanOutcome::Pending,
            detail,
        });
        SpanId(id)
    }

    /// Records an already-closed span `[start, end]` in one call.
    pub fn complete(
        &self,
        track: u32,
        actor: u32,
        kind: SpanKind,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        detail: u64,
    ) -> SpanId {
        let id = self.begin(track, actor, kind, start, parent, detail);
        self.end(id, end);
        id
    }

    /// Closes `id` at `cycle`. No-op for [`SpanId::DROPPED`].
    pub fn end(&self, id: SpanId, cycle: u64) {
        if id.is_dropped() {
            return;
        }
        let mut inner = self.lock();
        if let Some(s) = inner.spans.get_mut(id.0 as usize) {
            s.end = cycle;
            s.ended = true;
        }
    }

    /// Sets the outcome of section span `id`. No-op for
    /// [`SpanId::DROPPED`].
    pub fn set_outcome(&self, id: SpanId, outcome: SpanOutcome) {
        if id.is_dropped() {
            return;
        }
        let mut inner = self.lock();
        if let Some(s) = inner.spans.get_mut(id.0 as usize) {
            s.outcome = outcome;
        }
    }

    /// Records that `cause` triggered `effect`: sets the effect's
    /// back-pointer. No-op if either side was dropped.
    pub fn link(&self, cause: SpanId, effect: SpanId) {
        if cause.is_dropped() || effect.is_dropped() || cause == effect {
            return;
        }
        let mut inner = self.lock();
        if (cause.0 as usize) < inner.spans.len() && (effect.0 as usize) < inner.spans.len() {
            inner.spans[effect.0 as usize].cause = Some(cause.0);
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped because the log was full. Nonzero means cycle
    /// accounting over this trace is incomplete.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// A snapshot of the recorded spans, in record (ID) order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// A snapshot of the registered track names, in ID order.
    pub fn tracks(&self) -> Vec<String> {
        self.lock().tracks.clone()
    }

    /// The trace as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object form), loadable by `chrome://tracing` and Perfetto.
    ///
    /// - each track becomes a process (`ph:"M"` `process_name` metadata),
    /// - each span a complete event (`ph:"X"`, `pid` = track, `tid` =
    ///   actor, `ts`/`dur` in cycles) whose `args` carry the span ID,
    ///   parent, cause, outcome, detail and causal links (the IDs of the
    ///   spans whose cause it is, in ID order),
    /// - each causal link a flow pair (`ph:"s"` at the cause, `ph:"f"`
    ///   with `bp:"e"` at the effect) with the effect's span ID as the
    ///   flow ID.
    ///
    /// Field order, event order and number formatting are fixed, so
    /// identical runs export byte-identically.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.lock();
        let mut events: Vec<String> = Vec::new();
        for (i, name) in inner.tracks.iter().enumerate() {
            events.push(format!(
                "{{\"ph\": \"M\", \"pid\": {i}, \"tid\": 0, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                json_escape(name)
            ));
        }
        // (cause, effect) pairs sorted: a span's effects are one run, in ID order.
        let mut edges: Vec<(u64, u64)> =
            inner.spans.iter().filter_map(|s| Some((s.cause?, s.id))).collect();
        edges.sort_unstable();
        for s in &inner.spans {
            let dur = if s.ended { s.end.saturating_sub(s.start) } else { 0 };
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let cause = s.cause.map_or_else(|| "null".to_string(), |c| c.to_string());
            let from = edges.partition_point(|&(c, _)| c < s.id);
            let links: Vec<String> = edges[from..]
                .iter()
                .take_while(|&&(c, _)| c == s.id)
                .map(|&(_, e)| e.to_string())
                .collect();
            events.push(format!(
                "{{\"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {}, \"dur\": {dur}, \
                 \"name\": \"{}\", \"cat\": \"bulk\", \"args\": {{\"span\": {}, \
                 \"parent\": {parent}, \"cause\": {cause}, \"outcome\": \"{}\", \
                 \"detail\": {}, \"links\": [{}]}}}}",
                s.track,
                s.actor,
                s.start,
                s.kind.tag(),
                s.id,
                s.outcome.as_str(),
                s.detail,
                links.join(", ")
            ));
        }
        for s in &inner.spans {
            let Some(c) = s.cause else { continue };
            let cs = &inner.spans[c as usize];
            let cause_ts = if cs.ended { cs.end } else { cs.start };
            events.push(format!(
                "{{\"ph\": \"s\", \"pid\": {}, \"tid\": {}, \"ts\": {}, \"id\": {}, \
                 \"name\": \"causal\", \"cat\": \"bulk\"}}",
                cs.track,
                cs.actor,
                cause_ts.min(s.start),
                s.id
            ));
            events.push(format!(
                "{{\"ph\": \"f\", \"pid\": {}, \"tid\": {}, \"ts\": {}, \"id\": {}, \
                 \"bp\": \"e\", \"name\": \"causal\", \"cat\": \"bulk\"}}",
                s.track, s.actor, s.start, s.id
            ));
        }
        if events.is_empty() {
            return "{\"traceEvents\": []}\n".to_string();
        }
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// One conservation-audit failure found by [`cycle_accounting`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingViolation {
    /// Actor timeline the failure is on (`u32::MAX` when global).
    pub actor: u32,
    /// Cycle the offending span starts at (0 when global).
    pub cycle: u64,
    /// Human-readable description.
    pub detail: String,
}

/// The Fig. 13 execution-time breakdown produced by
/// [`cycle_accounting`]. All values are cycles summed over actors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Speculative-section time of attempts that committed.
    pub useful: u64,
    /// Speculative-section time of attempts that were squashed.
    pub squashed: u64,
    /// Commit arbitration + broadcast time spent on actor timelines
    /// (the paper's "commit" wedge).
    pub commit: u64,
    /// Conflict-stall plus liveness-backoff wait time.
    pub stall: u64,
    /// Squash/rollback, context-switch, checkpoint and spill overhead.
    pub overhead: u64,
    /// Everything else: non-speculative execution, dispatch gaps and
    /// idle tails (and unresolved sections of aborted runs).
    pub other: u64,
    /// Commit broadcast time on the bus lane — TLS commits overlap
    /// processor execution, so this is reported next to, not inside, the
    /// per-actor categories.
    pub commit_bus: u64,
    /// Total cycles across all actor timelines (the conservation
    /// right-hand side).
    pub total: u64,
    /// Conservation-audit failures; empty on a well-formed trace.
    pub violations: Vec<AccountingViolation>,
}

impl CycleBreakdown {
    /// The conservation invariant: the six per-actor categories sum
    /// exactly to the total. Holds by construction whenever
    /// [`CycleBreakdown::violations`] is empty.
    pub fn conserves(&self) -> bool {
        self.useful + self.squashed + self.commit + self.stall + self.overhead + self.other
            == self.total
    }
}

fn window_overlap(a: (u64, u64), b: (u64, u64)) -> u64 {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    hi.saturating_sub(lo)
}

/// Folds the spans of `track` into the Fig. 13 cycle categories.
///
/// `totals[a]` is actor `a`'s final clock. Leaf spans claim their
/// duration directly (commit → commit, stall/backoff → stall, the rest →
/// overhead); a section claims its window *minus* the leaf time nested
/// inside it, into useful or squashed by outcome; whatever no actor
/// claimed is `other`. Spans on an actor index past `totals` are the bus
/// lane and accumulate into [`CycleBreakdown::commit_bus`].
///
/// The audit: overlapping same-actor leaves, overlapping sections, spans
/// running backwards or past their actor's total, and over-claimed
/// actors all push an [`AccountingViolation`]. With no violations the
/// categories sum exactly to `totals`' sum ([`CycleBreakdown::conserves`]).
pub fn cycle_accounting(spans: &[Span], track: u32, totals: &[u64]) -> CycleBreakdown {
    let mut br = CycleBreakdown { total: totals.iter().sum(), ..CycleBreakdown::default() };
    let n = totals.len();
    let mut leaves: Vec<Vec<&Span>> = (0..n).map(|_| Vec::new()).collect();
    let mut sections: Vec<Vec<&Span>> = (0..n).map(|_| Vec::new()).collect();
    for s in spans.iter().filter(|s| s.track == track) {
        let a = s.actor as usize;
        if a >= n {
            if s.kind == SpanKind::Commit {
                if s.ended && s.end >= s.start {
                    br.commit_bus += s.end - s.start;
                } else if s.ended {
                    br.violations.push(AccountingViolation {
                        actor: s.actor,
                        cycle: s.start,
                        detail: format!("bus-lane span {} runs backwards", s.id),
                    });
                }
            } else {
                br.violations.push(AccountingViolation {
                    actor: s.actor,
                    cycle: s.start,
                    detail: format!("non-commit span {} ({}) on bus lane", s.id, s.kind.tag()),
                });
            }
            continue;
        }
        if s.kind == SpanKind::Section {
            sections[a].push(s);
        } else {
            leaves[a].push(s);
        }
    }
    for a in 0..n {
        let total = totals[a];
        let eff = |s: &Span| if s.ended { s.end } else { total };
        leaves[a].sort_by_key(|s| (s.start, s.id));
        sections[a].sort_by_key(|s| (s.start, s.id));
        for s in leaves[a].iter().chain(sections[a].iter()) {
            let e = eff(s);
            if e < s.start {
                br.violations.push(AccountingViolation {
                    actor: a as u32,
                    cycle: s.start,
                    detail: format!("span {} ({}) runs backwards: [{}, {e}]", s.id, s.kind.tag(), s.start),
                });
            }
            // Zero-duration markers (e.g. a bulk invalidation delivered
            // at commit-finish to an actor that already retired) claim no
            // time and are exempt.
            if e > total && e > s.start {
                br.violations.push(AccountingViolation {
                    actor: a as u32,
                    cycle: s.start,
                    detail: format!(
                        "span {} ({}) ends at {e}, past actor total {total}",
                        s.id,
                        s.kind.tag()
                    ),
                });
            }
        }
        for group in [&leaves[a], &sections[a]] {
            let mut max_end = 0u64;
            let mut prev = 0u64;
            for s in group.iter() {
                let e = eff(s).max(s.start);
                // Zero-duration markers claim no time and may legitimately
                // land inside another span's window (e.g. a bulk
                // invalidation delivered mid-squash); they cannot overlap.
                if e == s.start {
                    continue;
                }
                if s.start < max_end {
                    br.violations.push(AccountingViolation {
                        actor: a as u32,
                        cycle: s.start,
                        detail: format!(
                            "span {} ({}) overlaps span {prev} on the same timeline",
                            s.id,
                            s.kind.tag()
                        ),
                    });
                }
                if e > max_end {
                    max_end = e;
                    prev = s.id;
                }
            }
        }
        let mut claimed = 0u64;
        for s in &leaves[a] {
            let st = s.start.min(total);
            let e = eff(s).clamp(st, total);
            let d = e - st;
            match s.kind {
                SpanKind::Commit => br.commit += d,
                SpanKind::Stall | SpanKind::Backoff => br.stall += d,
                _ => br.overhead += d,
            }
            claimed += d;
        }
        for s in &sections[a] {
            let st = s.start.min(total);
            let e = eff(s).clamp(st, total);
            let inner: u64 = leaves[a]
                .iter()
                .map(|l| window_overlap((st, e), (l.start.min(total), eff(l).clamp(l.start.min(total), total))))
                .sum();
            let net = (e - st).saturating_sub(inner);
            match s.outcome {
                SpanOutcome::Useful => {
                    br.useful += net;
                    claimed += net;
                }
                SpanOutcome::Squashed => {
                    br.squashed += net;
                    claimed += net;
                }
                // Unresolved attempts (run aborted mid-flight) fall into
                // the remainder.
                SpanOutcome::Pending => {}
            }
        }
        if claimed > total {
            br.violations.push(AccountingViolation {
                actor: a as u32,
                cycle: total,
                detail: format!("actor {a} claims {claimed} cycles of a {total}-cycle timeline"),
            });
        }
        br.other += total.saturating_sub(claimed);
    }
    br
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> TraceLog {
        TraceLog::new()
    }

    #[test]
    fn spans_get_sequential_ids_and_close() {
        let t = log();
        let tr = t.register_track("tm.");
        assert_eq!(tr, 0);
        assert_eq!(t.register_track("tm."), 0, "track registration dedupes");
        assert_eq!(t.register_track("tls."), 1);
        let a = t.begin(tr, 0, SpanKind::Section, 10, None, 7);
        let b = t.complete(tr, 0, SpanKind::Commit, 50, 80, Some(a), 7);
        t.end(a, 50);
        t.set_outcome(a, SpanOutcome::Useful);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 0);
        assert_eq!(spans[1].id, b.raw());
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].ended && spans[1].ended);
        assert_eq!(spans[0].outcome, SpanOutcome::Useful);
        assert_eq!(spans[0].detail, 7);
    }

    #[test]
    fn links_record_cause_and_effects() {
        let t = log();
        let tr = t.register_track("tm.");
        let c = t.complete(tr, 0, SpanKind::Commit, 0, 10, None, 0);
        let s1 = t.complete(tr, 1, SpanKind::Squash, 10, 14, None, 0);
        let s2 = t.complete(tr, 2, SpanKind::BulkInvalidate, 10, 10, None, 3);
        t.link(c, s1);
        t.link(c, s2);
        let spans = t.spans();
        assert_eq!(spans[0].cause, None);
        assert_eq!(spans[1].cause, Some(c.raw()));
        assert_eq!(spans[2].cause, Some(c.raw()));
        let json = t.to_chrome_json();
        assert!(json.contains("\"span\": 0, \"parent\": null, \"cause\": null"));
        assert!(json.contains("\"links\": [1, 2]}"), "{json}");
    }

    #[test]
    fn full_log_drops_and_sentinel_is_inert() {
        let t = TraceLog::with_capacity(2);
        let tr = t.register_track("tm.");
        let a = t.begin(tr, 0, SpanKind::Section, 0, None, 0);
        let _b = t.begin(tr, 0, SpanKind::Commit, 5, None, 0);
        let c = t.begin(tr, 0, SpanKind::Squash, 9, None, 0);
        assert!(c.is_dropped());
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.len(), 2);
        // All sentinel operations are no-ops.
        t.end(c, 100);
        t.set_outcome(c, SpanOutcome::Squashed);
        t.link(a, c);
        t.link(c, a);
        assert!(t.spans().iter().all(|s| s.cause.is_none()));
    }

    #[test]
    fn chrome_export_shape_and_determinism() {
        let build = || {
            let t = log();
            let tr = t.register_track("tm.");
            let sec = t.begin(tr, 1, SpanKind::Section, 0, None, 4);
            t.end(sec, 90);
            t.set_outcome(sec, SpanOutcome::Squashed);
            let c = t.complete(tr, 0, SpanKind::Commit, 40, 90, None, 2);
            let sq = t.complete(tr, 1, SpanKind::Squash, 90, 95, None, 0);
            t.link(c, sq);
            t.to_chrome_json()
        };
        let json = build();
        assert_eq!(json, build(), "same construction exports byte-identically");
        assert!(json.starts_with("{\"traceEvents\": [\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"ph\": \"M\""), "has process metadata");
        assert!(json.contains("\"name\": \"process_name\""));
        assert!(json.contains("\"ph\": \"X\""), "has complete events");
        assert!(json.contains("\"ph\": \"s\"") && json.contains("\"ph\": \"f\""), "has the flow pair");
        assert!(json.contains("\"bp\": \"e\""));
        assert!(json.contains("\"outcome\": \"squashed\""));
        assert!(json.contains("\"links\": [2]"));
        // Braces balance (the export has no string payloads containing braces).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn empty_export_is_valid() {
        assert_eq!(log().to_chrome_json(), "{\"traceEvents\": []}\n");
    }

    #[test]
    fn accounting_splits_categories_and_conserves() {
        let t = log();
        let tr = t.register_track("tm.");
        // Actor 0: section [10,100] useful, commit [100,150], squash
        // [150,160], backoff [160,170]; total 200.
        let sec = t.begin(tr, 0, SpanKind::Section, 10, None, 0);
        t.end(sec, 100);
        t.set_outcome(sec, SpanOutcome::Useful);
        t.complete(tr, 0, SpanKind::Commit, 100, 150, Some(sec), 0);
        t.complete(tr, 0, SpanKind::Squash, 150, 160, None, 0);
        t.complete(tr, 0, SpanKind::Backoff, 160, 170, None, 0);
        let br = cycle_accounting(&t.spans(), tr, &[200]);
        assert_eq!(br.useful, 90);
        assert_eq!(br.commit, 50);
        assert_eq!(br.overhead, 10);
        assert_eq!(br.stall, 10);
        assert_eq!(br.squashed, 0);
        assert_eq!(br.other, 40, "10 lead-in + 30 tail");
        assert_eq!(br.total, 200);
        assert!(br.violations.is_empty());
        assert!(br.conserves());
    }

    #[test]
    fn leaf_inside_section_is_subtracted_from_its_window() {
        let t = log();
        let tr = t.register_track("tls.");
        let sec = t.begin(tr, 0, SpanKind::Section, 0, None, 0);
        t.complete(tr, 0, SpanKind::CtxSwitch, 40, 50, None, 0);
        t.end(sec, 100);
        t.set_outcome(sec, SpanOutcome::Squashed);
        let br = cycle_accounting(&t.spans(), tr, &[100]);
        assert_eq!(br.squashed, 90);
        assert_eq!(br.overhead, 10);
        assert_eq!(br.other, 0);
        assert!(br.conserves());
        assert!(br.violations.is_empty());
    }

    #[test]
    fn pending_sections_fall_into_other() {
        let t = log();
        let tr = t.register_track("tm.");
        t.begin(tr, 0, SpanKind::Section, 20, None, 0); // never ended
        let br = cycle_accounting(&t.spans(), tr, &[100]);
        assert_eq!(br.useful + br.squashed, 0);
        assert_eq!(br.other, 100);
        assert!(br.conserves());
        assert!(br.violations.is_empty());
    }

    #[test]
    fn bus_lane_commits_accumulate_separately() {
        let t = log();
        let tr = t.register_track("tls.");
        t.complete(tr, 2, SpanKind::Commit, 10, 60, None, 0); // actor 2 == bus for 2 procs
        let br = cycle_accounting(&t.spans(), tr, &[100, 100]);
        assert_eq!(br.commit, 0);
        assert_eq!(br.commit_bus, 50);
        assert_eq!(br.other, 200);
        assert!(br.conserves());
        assert!(br.violations.is_empty());
    }

    #[test]
    fn audit_flags_overlap_and_overrun() {
        let t = log();
        let tr = t.register_track("tm.");
        t.complete(tr, 0, SpanKind::Squash, 0, 50, None, 0);
        t.complete(tr, 0, SpanKind::Commit, 40, 60, None, 0); // overlaps
        t.complete(tr, 1, SpanKind::Commit, 10, 150, None, 0); // past total
        let br = cycle_accounting(&t.spans(), tr, &[100, 100]);
        assert_eq!(br.violations.len(), 2);
        assert!(br.violations[0].detail.contains("overlaps"));
        assert!(br.violations[1].detail.contains("past actor total"));
    }

    #[test]
    fn audit_flags_backwards_and_foreign_bus_spans() {
        let t = log();
        let tr = t.register_track("tm.");
        let s = t.begin(tr, 0, SpanKind::Commit, 50, None, 0);
        t.end(s, 10); // backwards
        t.complete(tr, 5, SpanKind::Squash, 0, 10, None, 0); // non-commit on bus lane
        let br = cycle_accounting(&t.spans(), tr, &[100]);
        assert!(br.violations.iter().any(|v| v.detail.contains("backwards")));
        assert!(br.violations.iter().any(|v| v.detail.contains("bus lane")));
    }

    #[test]
    fn other_track_spans_are_ignored() {
        let t = log();
        let tm = t.register_track("tm.");
        let tls = t.register_track("tls.");
        t.complete(tm, 0, SpanKind::Commit, 0, 50, None, 0);
        t.complete(tls, 0, SpanKind::Commit, 0, 30, None, 0);
        let br = cycle_accounting(&t.spans(), tls, &[100]);
        assert_eq!(br.commit, 30);
        assert!(br.conserves());
    }
}
