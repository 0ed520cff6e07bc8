//! The structured event log: typed protocol events with logical
//! timestamps, ring-buffered and exportable as JSONL.
//!
//! Every recorded [`Event`] carries a `seq` (a logical timestamp: the
//! global record order, gap-free while the ring has not wrapped), the
//! machine `cycle` at which the protocol step happened, and the `actor`
//! (thread index in the TM machine, task index in the TLS machine). The
//! ring keeps the most recent events and counts what it dropped, so a
//! long run degrades to a bounded tail instead of unbounded memory.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Mutex;

/// Why a speculative thread/task was squashed, as attributed by the exact
/// per-address oracle (see [`crate::Verdict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// The committed write set really overlapped the victim's exact
    /// read/write sets — any scheme must squash here.
    TrueConflict,
    /// The signatures intersected but the exact sets were disjoint: the
    /// squash is an artifact of signature aliasing (paper §7.5's false
    /// positives).
    Aliasing,
}

impl SquashCause {
    /// Attribution from the oracle's view of the conflict.
    pub fn from_oracle(truly_conflicting: bool) -> Self {
        if truly_conflicting {
            SquashCause::TrueConflict
        } else {
            SquashCause::Aliasing
        }
    }

    /// Stable lowercase name used in JSONL and metric suffixes.
    pub fn as_str(self) -> &'static str {
        match self {
            SquashCause::TrueConflict => "true_conflict",
            SquashCause::Aliasing => "aliasing",
        }
    }
}

/// One typed protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction/task committed and broadcast its write set.
    CommitBroadcast {
        /// Bytes on the bus (compressed signature, or address list for
        /// conventional schemes).
        payload_bytes: u64,
        /// Exact committed write-set size (lines for TM, words for TLS).
        writes: u64,
    },
    /// A speculative thread/task was squashed.
    Squash {
        /// Oracle attribution: real conflict or signature aliasing.
        cause: SquashCause,
        /// Exact dependence-set size (`|W_C ∩ (R_R ∪ W_R)|`); 0 for an
        /// aliasing-induced squash.
        dep: u64,
    },
    /// A receiver bulk-invalidated cache lines selected by the committed
    /// write signature (paper §4.3).
    BulkInvalidate {
        /// Lines the signature expansion invalidated.
        lines: u64,
        /// How many of those the committer exactly wrote.
        exact: u64,
        /// `lines - exact`: invalidations caused purely by aliasing
        /// (Table 7 "False Inv/Com" numerator).
        overshoot: u64,
    },
    /// A speculative dirty line was evicted into the memory overflow area
    /// (paper §6.2.2).
    Overflow {
        /// Lines resident in the overflow area after the spill.
        resident: u64,
    },
    /// A forced context switch spilled and reloaded the running version's
    /// signatures (paper §6.2.2; chaos runs only).
    CtxSwitch,
    /// A repeatedly-squashed transaction/task escalated to its
    /// non-speculative fallback (graceful degradation).
    Escalation,
    /// The liveness engine's backoff arbitration stalled a squashed
    /// thread before its retry.
    Backoff {
        /// Cycles the thread was told to wait.
        cycles: u64,
    },
    /// The commit arbiter crashed mid-broadcast. The crash is bus time:
    /// the re-election holds the bus, and the in-flight commit message
    /// is still delivered once.
    ArbiterFailover {
        /// Epoch after re-election: the run's crash count so far.
        epoch: u64,
    },
    /// The forward-progress watchdog tripped; the run aborts with a
    /// `LivenessViolation`.
    WatchdogTrip {
        /// Kebab-case violation kind (`livelock`, `starvation`,
        /// `global-stall`).
        kind: &'static str,
    },
}

impl EventKind {
    /// Stable lowercase tag used as the JSONL `"event"` field.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::CommitBroadcast { .. } => "commit_broadcast",
            EventKind::Squash { .. } => "squash",
            EventKind::BulkInvalidate { .. } => "bulk_invalidate",
            EventKind::Overflow { .. } => "overflow",
            EventKind::CtxSwitch => "ctx_switch",
            EventKind::Escalation => "escalation",
            EventKind::Backoff { .. } => "backoff",
            EventKind::ArbiterFailover { .. } => "arbiter_failover",
            EventKind::WatchdogTrip { .. } => "watchdog_trip",
        }
    }
}

/// A recorded event: a typed payload plus its logical timestamp and
/// machine coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Logical timestamp: global record order (0, 1, 2, …).
    pub seq: u64,
    /// Machine cycle of the protocol step.
    pub cycle: u64,
    /// Thread index (TM) or task index (TLS) the event concerns.
    pub actor: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// The event as one JSONL line (no trailing newline). Field order is
    /// fixed, so identical runs serialize byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.write_json_line(&mut out);
        out
    }

    /// Appends [`Event::to_json_line`]'s bytes to `out`, so a caller
    /// serializing many events reuses one buffer.
    pub fn write_json_line(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"seq\": {}, \"cycle\": {}, \"actor\": {}, \"event\": \"{}\"",
            self.seq,
            self.cycle,
            self.actor,
            self.kind.tag()
        );
        let _ = match &self.kind {
            EventKind::CommitBroadcast { payload_bytes, writes } => {
                write!(out, ", \"payload_bytes\": {payload_bytes}, \"writes\": {writes}")
            }
            EventKind::Squash { cause, dep } => {
                write!(out, ", \"cause\": \"{}\", \"dep\": {dep}", cause.as_str())
            }
            EventKind::BulkInvalidate { lines, exact, overshoot } => {
                write!(out, ", \"lines\": {lines}, \"exact\": {exact}, \"overshoot\": {overshoot}")
            }
            EventKind::Overflow { resident } => write!(out, ", \"resident\": {resident}"),
            EventKind::CtxSwitch | EventKind::Escalation => Ok(()),
            EventKind::Backoff { cycles } => write!(out, ", \"cycles\": {cycles}"),
            EventKind::ArbiterFailover { epoch } => write!(out, ", \"epoch\": {epoch}"),
            EventKind::WatchdogTrip { kind } => write!(out, ", \"kind\": \"{kind}\""),
        };
        out.push('}');
    }
}

/// The retained tail of the log. Every event ever recorded is either in
/// `buf` or counted in `dropped`, so their sum is the next `seq`: taken
/// under the ring's lock, it keeps `buf` seq-ordered however many threads
/// record.
#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<Event>,
    dropped: u64,
    /// Most events ever resident at once — the buffer's high-water mark,
    /// exposed as a gauge so streaming backpressure is visible even when
    /// nothing was dropped.
    hwm: usize,
}

/// Default ring capacity: enough for every event of the repo's stock
/// workloads, small enough to be harmless if a run is enormous.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// A bounded, shareable log of [`Event`]s.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// Creates a log with the default capacity.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Creates a log holding at most `capacity` events; older events are
    /// dropped (and counted) once it is full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        EventLog { capacity, ring: Mutex::new(Ring::default()) }
    }

    /// Records one event, assigning it the next logical timestamp.
    pub fn record(&self, actor: u32, cycle: u64, kind: EventKind) {
        let mut ring = self.ring.lock().expect("event ring poisoned");
        let seq = ring.dropped + ring.buf.len() as u64;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Event { seq, cycle, actor, kind });
        ring.hwm = ring.hwm.max(ring.buf.len());
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("event ring poisoned").buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("event ring poisoned").dropped
    }

    /// The most events ever resident at once (buffer high-water mark).
    pub fn high_water(&self) -> usize {
        self.ring.lock().expect("event ring poisoned").hwm
    }

    /// Retained events with `seq >= from_seq`, oldest first — the
    /// incremental drain used by streaming consumers: remember the last
    /// seq you saw and ask for `last + 1` next time. Events that wrapped
    /// out of the ring before being read show up only in
    /// [`EventLog::dropped`].
    pub fn events_after(&self, from_seq: u64) -> Vec<Event> {
        let ring = self.ring.lock().expect("event ring poisoned");
        // The ring is seq-ordered; skip the prefix below from_seq.
        let skip = ring.buf.partition_point(|e| e.seq < from_seq);
        ring.buf.iter().skip(skip).cloned().collect()
    }

    /// A snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("event ring poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events as JSONL: one event per line, oldest first,
    /// followed by one trailer record
    /// (`{"trailer": true, "retained": N, "dropped": M}`) so ring
    /// truncation is never silent — a reader that sees `dropped > 0`
    /// knows the head of the run is missing. Deterministic for identical
    /// runs.
    pub fn to_jsonl(&self) -> String {
        let ring = self.ring.lock().expect("event ring poisoned");
        let mut out = String::new();
        for e in &ring.buf {
            e.write_json_line(&mut out);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{{\"trailer\": true, \"retained\": {}, \"dropped\": {}}}",
            ring.buf.len(),
            ring.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_with_monotonic_seq() {
        let log = EventLog::new();
        log.record(0, 10, EventKind::CtxSwitch);
        log.record(1, 20, EventKind::Escalation);
        let ev = log.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
        assert_eq!(ev[1].actor, 1);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = EventLog::with_capacity(2);
        for i in 0..5 {
            log.record(i, u64::from(i), EventKind::CtxSwitch);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let ev = log.events();
        assert_eq!(ev[0].seq, 3, "oldest retained is the third-from-last record");
        assert_eq!(ev[1].seq, 4);
    }

    #[test]
    fn jsonl_lines_are_objects_with_fixed_fields() {
        let log = EventLog::new();
        log.record(
            2,
            100,
            EventKind::Squash { cause: SquashCause::Aliasing, dep: 0 },
        );
        log.record(
            0,
            120,
            EventKind::BulkInvalidate { lines: 5, exact: 4, overshoot: 1 },
        );
        log.record(1, 130, EventKind::CommitBroadcast { payload_bytes: 320, writes: 12 });
        log.record(1, 140, EventKind::Overflow { resident: 3 });
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5, "4 events + 1 trailer");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        }
        assert_eq!(lines[4], "{\"trailer\": true, \"retained\": 4, \"dropped\": 0}");
        assert_eq!(
            lines[0],
            "{\"seq\": 0, \"cycle\": 100, \"actor\": 2, \"event\": \"squash\", \
             \"cause\": \"aliasing\", \"dep\": 0}"
        );
        assert!(lines[1].contains("\"overshoot\": 1"));
        assert!(lines[2].contains("\"payload_bytes\": 320"));
        assert!(lines[3].contains("\"resident\": 3"));
    }

    #[test]
    fn liveness_events_serialize_with_fixed_fields() {
        let log = EventLog::new();
        log.record(0, 50, EventKind::Backoff { cycles: 96 });
        log.record(2, 60, EventKind::ArbiterFailover { epoch: 3 });
        log.record(1, 70, EventKind::WatchdogTrip { kind: "livelock" });
        let lines: Vec<String> = log.to_jsonl().lines().map(String::from).collect();
        assert_eq!(
            lines[0],
            "{\"seq\": 0, \"cycle\": 50, \"actor\": 0, \"event\": \"backoff\", \"cycles\": 96}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\": 1, \"cycle\": 60, \"actor\": 2, \"event\": \"arbiter_failover\", \
             \"epoch\": 3}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\": 2, \"cycle\": 70, \"actor\": 1, \"event\": \"watchdog_trip\", \
             \"kind\": \"livelock\"}"
        );
    }

    #[test]
    fn wraparound_keeps_seq_monotonic_and_trailer_reports_drops() {
        let log = EventLog::with_capacity(3);
        for i in 0..10u32 {
            log.record(i, u64::from(i) * 10, EventKind::Escalation);
        }
        // Retained events are the newest three, seq still strictly
        // increasing and gap-free across the wrap.
        let ev = log.events();
        assert_eq!(ev.len(), 3);
        let seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(log.dropped(), 7);
        let jsonl = log.to_jsonl();
        let last = jsonl.lines().last().unwrap();
        assert_eq!(last, "{\"trailer\": true, \"retained\": 3, \"dropped\": 7}");
        // Recording after the wrap keeps counting from the global seq.
        log.record(0, 100, EventKind::CtxSwitch);
        assert_eq!(log.events().last().unwrap().seq, 10);
        assert_eq!(log.dropped(), 8);
    }

    #[test]
    fn high_water_tracks_peak_residency() {
        let log = EventLog::with_capacity(3);
        assert_eq!(log.high_water(), 0);
        log.record(0, 0, EventKind::CtxSwitch);
        log.record(0, 1, EventKind::CtxSwitch);
        assert_eq!(log.high_water(), 2);
        for i in 0..5 {
            log.record(0, 2 + i, EventKind::CtxSwitch);
        }
        // Capacity bounds the high-water mark; drops don't lower it.
        assert_eq!(log.len(), 3);
        assert_eq!(log.high_water(), 3);
    }

    #[test]
    fn events_after_drains_incrementally() {
        let log = EventLog::new();
        for i in 0..6u32 {
            log.record(i, u64::from(i), EventKind::Escalation);
        }
        let first: Vec<u64> = log.events_after(0).iter().map(|e| e.seq).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 4, 5]);
        let tail: Vec<u64> = log.events_after(4).iter().map(|e| e.seq).collect();
        assert_eq!(tail, vec![4, 5]);
        assert!(log.events_after(6).is_empty());
    }

    #[test]
    fn concurrent_records_stay_seq_ordered_and_drain_exactly_once() {
        // Four threads record at once while this one drains: the ring must
        // stay strictly seq-ordered, or `events_after`'s binary search
        // skips or repeats events.
        const PER_THREAD: u64 = 2_000;
        let log = EventLog::new();
        let mut drained = Vec::new();
        std::thread::scope(|s| {
            let log = &log;
            let writers: Vec<_> = (0..4u32)
                .map(|t| {
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            log.record(t, i, EventKind::Escalation);
                        }
                    })
                })
                .collect();
            loop {
                // Read `done` first, so the last drain sees every record.
                let done = writers.iter().all(|w| w.is_finished());
                let next = drained.last().map_or(0, |e: &Event| e.seq + 1);
                drained.extend(log.events_after(next));
                if done {
                    break;
                }
            }
        });
        let all = log.events();
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq), "ring is not seq-ordered");
        let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..4 * PER_THREAD).collect::<Vec<_>>(), "each event drained once");
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn empty_log_still_emits_a_trailer() {
        let log = EventLog::new();
        assert_eq!(log.to_jsonl(), "{\"trailer\": true, \"retained\": 0, \"dropped\": 0}\n");
    }

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(SquashCause::from_oracle(true).as_str(), "true_conflict");
        assert_eq!(SquashCause::from_oracle(false).as_str(), "aliasing");
    }
}
