//! The worker-side half of the bus protocol, shared by the TM and TLS
//! engines: a [`Receiver`] walks the log with a cursor, applying each
//! record to a worker exactly once, and publishes the worker's own
//! records into it; [`SpecSets`] is the speculative read/write state
//! those records are checked against.
//!
//! An engine keeps what differs: which records can squash it (TM: a
//! peer's `W_C` against `R ∪ W`, inside a transaction; TLS: a
//! predecessor's against `R`), when it may claim a slot, and what a
//! squash rewinds. Recovery is shared too: a respawned incarnation holds
//! the slot its dead predecessor claimed (`claimed_unpublished`), stops
//! its replay there, and publishes into it without re-claiming. A record
//! carries no identity beyond its slot, so that slot is all a respawn
//! inherits.

use crate::bus::{BusLog, BusRecord, RecordKind};
use crate::config::ParConfig;
use crate::recover::{Halt, RunControl};
use crate::stats::ParStats;
use bulk_chaos::{CrashPoint, InvariantKind, WorkerChaos};
use bulk_mem::{Addr, LineAddr};
use bulk_obs::Verdict as Class;
use bulk_rng::{Rng, SeedableRng, SmallRng};
use bulk_sig::{Signature, SignatureConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a wait yields before it parks: long enough for a running
/// publisher's claim-to-publish window, far short of a scheduler slice.
/// It is a time, not a count of yields: beside a busy process one yield
/// can cost a whole slice, and such a waiter must park at once.
const WAIT_YIELD_BUDGET: Duration = Duration::from_micros(200);

/// The longest one park sleeps. A publish of the awaited slot wakes the
/// waiter sooner; the timeout bounds what a lost wake costs, and how
/// late a parked waiter sees an abort or a stall.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Accumulated compute dwell is slept in chunks no smaller than this, so
/// fine-grained `Compute` ops don't turn into sub-microsecond sleeps.
const DWELL_FLUSH_NS: u64 = 50_000;

/// The shortest length at which an [`AccessLog`] compacts.
const LOG_COMPACT_MIN: usize = 256;

/// A receiver's verdict on one record: the exact oracle's, and the
/// signatures' when the record carries one — the two halves
/// [`bulk_obs::Verdict::classify`] attributes.
pub(crate) struct Verdict {
    pub exact: bool,
    pub sig: Option<bool>,
}

/// The exact oracle's half of one speculative set: every line accessed,
/// appended in program order with its repeats. An access is a push; set
/// work happens only where a set answer is needed — a verdict scans the
/// log, a payload sorts and dedups it — the paper's bulk operation on
/// `W_C`'s arrival, with no per-access set insert.
///
/// A log never holds more than twice its distinct lines (or
/// [`LOG_COMPACT_MIN`]): when it reaches twice what its last compaction
/// left, it is sorted and deduped in place. That bounds a verdict's scan.
struct AccessLog {
    lines: Vec<LineAddr>,
    /// The length at which the next push compacts.
    compact_at: usize,
}

impl Default for AccessLog {
    fn default() -> Self {
        AccessLog { lines: Vec::new(), compact_at: LOG_COMPACT_MIN }
    }
}

impl AccessLog {
    #[inline(always)]
    fn push(&mut self, line: LineAddr) {
        self.lines.push(line);
        if self.lines.len() >= self.compact_at {
            self.compact();
        }
    }

    /// Sorts and dedups the log in place; the set it holds is unchanged.
    #[cold]
    #[inline(never)]
    fn compact(&mut self) {
        self.lines.sort_unstable();
        self.lines.dedup();
        self.compact_at = (2 * self.lines.len()).max(LOG_COMPACT_MIN);
    }

    /// Branch-free, so LLVM vectorises the scan: a log is short (see the
    /// bound above), and a branch per element costs more than the
    /// elements an early exit would skip.
    #[inline]
    fn contains(&self, l: LineAddr) -> bool {
        self.lines.iter().fold(false, |hit, &x| hit | (x == l))
    }

    fn clear(&mut self) {
        self.lines.clear();
        self.compact_at = LOG_COMPACT_MIN;
    }
}

/// A worker's speculative state: exact oracle access logs (always) and
/// R/W signatures (Bulk schemes), at line granularity.
pub(crate) struct SpecSets {
    use_sigs: bool,
    sig_config: Arc<SignatureConfig>,
    r_sig: Signature,
    w_sig: Signature,
    exact_r: AccessLog,
    exact_w: AccessLog,
}

impl SpecSets {
    pub(crate) fn new(use_sigs: bool, sig_config: Arc<SignatureConfig>) -> Self {
        SpecSets {
            use_sigs,
            r_sig: Signature::with_shared(sig_config.clone()),
            w_sig: Signature::with_shared(sig_config.clone()),
            sig_config,
            exact_r: AccessLog::default(),
            exact_w: AccessLog::default(),
        }
    }

    /// The line `a` falls in, at the signatures' granularity.
    pub(crate) fn line(&self, a: Addr) -> LineAddr {
        a.line(self.sig_config.line_bytes())
    }

    pub(crate) fn read(&mut self, a: Addr) {
        let line = self.line(a);
        self.exact_r.push(line);
        if self.use_sigs {
            self.r_sig.insert_line(line);
        }
    }

    pub(crate) fn write(&mut self, a: Addr) {
        let line = self.line(a);
        self.exact_w.push(line);
        if self.use_sigs {
            self.w_sig.insert_line(line);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.exact_r.clear();
        self.exact_w.clear();
        if self.use_sigs {
            self.r_sig.clear();
            self.w_sig.clear();
        }
    }

    /// Does `rec`'s write set hit what was read here — or, `with_writes`,
    /// read or written?
    ///
    /// Under a signature scheme a commit's `W_C` is intersected and a
    /// store's address is tested by membership (§4.2, the sim's
    /// `Bdm::disambiguate_addr`) — the answer a one-line signature's
    /// intersection gives, without building one.
    pub(crate) fn verdict(&self, rec: &BusRecord, with_writes: bool) -> Verdict {
        let exact = rec
            .exact_w
            .iter()
            .any(|&l| self.exact_r.contains(l) || (with_writes && self.exact_w.contains(l)));
        let sig = match &rec.w_sig {
            Some(w) => {
                Some(w.intersects(&self.r_sig) || (with_writes && w.intersects(&self.w_sig)))
            }
            None if self.use_sigs && rec.kind == RecordKind::NonTxStore => {
                Some(rec.exact_w.iter().any(|&l| {
                    self.r_sig.contains_line(l) || (with_writes && self.w_sig.contains_line(l))
                }))
            }
            None => None,
        };
        Verdict { exact, sig }
    }

    /// What a commit broadcasts — a copy of `W` and the exact written
    /// lines, sorted and deduped — as `(w_sig, exact_w)`; `R` is not
    /// read. The `W` log is compacted in place and copied out at its
    /// exact length; the set it holds, and so every verdict, is as it
    /// was. A publisher builds it before it claims a slot (DESIGN.md §18).
    pub(crate) fn commit_payload(&mut self) -> (Option<Signature>, Vec<LineAddr>) {
        self.exact_w.compact();
        (self.use_sigs.then(|| self.w_sig.clone()), self.exact_w.lines.to_vec())
    }
}

/// One worker incarnation's view of the bus.
pub(crate) struct Receiver {
    pub proc: usize,
    compute_ns_per_kcycle: u64,
    rng: SmallRng,
    chaos: WorkerChaos,
    /// Records applied (or published) so far: the validated log prefix.
    /// Slot `i` is read only while the cursor is `i`, and the cursor then
    /// moves past it — this is what applies each record exactly once.
    pub cursor: usize,
    squash_streak: u32,
    pending_dwell_ns: u64,
    /// Slot claimed (or adopted from a dead incarnation) whose record is
    /// not yet published. If the worker dies inside that window the
    /// supervisor hands it to the next incarnation, which publishes into
    /// it — however often the adopter itself dies before publishing.
    pub claimed_unpublished: Option<usize>,
    /// This incarnation's counters, folded into the run's at its end.
    pub stats: ParStats,
}

impl Receiver {
    /// A fresh incarnation: cursor 0, so a respawn replays the entire log
    /// and applies each record once. The supervisor hands a respawn its
    /// dead incarnation's held slot before it starts.
    pub(crate) fn new(proc: usize, cfg: &ParConfig, chaos: WorkerChaos) -> Self {
        Receiver {
            proc,
            compute_ns_per_kcycle: cfg.compute_ns_per_kcycle,
            rng: SmallRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64 ^ proc as u64)),
            chaos,
            cursor: 0,
            squash_streak: 0,
            pending_dwell_ns: 0,
            claimed_unpublished: None,
            stats: ParStats::default(),
        }
    }

    /// Applies every record published since the last poll. `check` is the
    /// engine's conflict rule (`None`: this record cannot squash the worker
    /// now). Returns `Ok(true)` if a record squashed the running attempt;
    /// the engine then rewinds.
    ///
    /// Engines poll before every trace op and almost always find nothing
    /// new; that case is inlined into their loops — the armed-stall check,
    /// one load of the tail, one compare.
    #[inline]
    pub(crate) fn poll(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        check: impl FnMut(&BusRecord) -> Option<Verdict>,
    ) -> Result<bool, Halt> {
        if let Some(d) = self.chaos.maybe_stall() {
            self.stats.injected_stalls += 1;
            std::thread::sleep(d);
        }
        let tail = log.tail();
        if self.cursor >= tail {
            return Ok(false);
        }
        self.apply_up_to(tail, log, ctl, check)
    }

    /// The rest of [`Receiver::poll`]: applies records up to `tail`.
    ///
    /// Waiting on a claimed-but-unpublished slot checks the abort flag
    /// and the wall-clock watchdog, so a dead or hung peer halts the
    /// worker with a typed cause instead of hanging it.
    #[inline(never)]
    fn apply_up_to(
        &mut self,
        tail: usize,
        log: &BusLog,
        ctl: &RunControl,
        mut check: impl FnMut(&BusRecord) -> Option<Verdict>,
    ) -> Result<bool, Halt> {
        let mut squashed = false;
        // An adopted (still unpublished) slot is the worker's own: there
        // is nothing to apply, and waiting on it would deadlock.
        while self.cursor < tail && self.claimed_unpublished != Some(self.cursor) {
            self.apply_next(log, ctl, &mut squashed, &mut check)?;
        }
        Ok(squashed)
    }

    /// End of trace: while an explicit `Apply` kill is still scheduled for
    /// this processor, keeps applying records — blocking on the next slot
    /// like any poll — until it fires or the log holds the `expected`
    /// records the workload implies. Makes the kill's reachability
    /// independent of how far ahead of its peers the worker ran.
    pub(crate) fn drain_for_apply_kill(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        expected: usize,
    ) -> Result<(), Halt> {
        while self.cursor < expected && self.chaos.apply_kill_pending() {
            self.apply_next(log, ctl, &mut false, &mut |_| None)?;
        }
        Ok(())
    }

    fn apply_next(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        squashed: &mut bool,
        check: &mut impl FnMut(&BusRecord) -> Option<Verdict>,
    ) -> Result<(), Halt> {
        let mut since = None;
        let rec = loop {
            if let Some(r) = log.get(self.cursor) {
                break r;
            }
            self.stats.slot_wait_spins += 1;
            self.wait(log, ctl, &mut since)?;
        };
        let verdict = if *squashed { None } else { check(rec) };
        if let Some(v) = verdict {
            self.stats.audit_checks += u64::from(v.sig.is_some());
            // A record without a signature (exact-set schemes) is decided
            // by the oracle itself.
            let class = Class::classify(v.sig.unwrap_or(v.exact), v.exact);
            if class == Class::FalseNegative {
                // A real conflict the signatures missed: the one-sided-error
                // guarantee is broken. Record it and squash anyway so
                // execution stays safe.
                self.stats.violations.push(ctl.violation(
                    InvariantKind::SignatureContainment,
                    self.proc,
                    self.cursor as u64,
                    "broadcast W_C missed an exact conflict",
                ));
            }
            if class != Class::TrueNegative {
                self.stats.squashes += 1;
                self.stats.false_squashes += u64::from(class == Class::FalsePositive);
                *squashed = true;
            }
        }
        self.cursor += 1;
        if self.chaos.on_apply() {
            return Err(Halt::Killed { point: CrashPoint::Apply });
        }
        Ok(())
    }

    /// One round of a wait for slot `self.cursor` to be published, which
    /// began `since` (set at the first round); the caller reads the log
    /// again after it. For [`WAIT_YIELD_BUDGET`] a round yields; after
    /// that it parks until that slot's publish wakes the worker or
    /// [`PARK_TIMEOUT`] passes, so a waiter leaves its core to the thread
    /// that must publish next. Every round ends with the abort and
    /// watchdog checks, so a wait on an orphaned slot ends in a typed halt.
    pub(crate) fn wait(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        since: &mut Option<Instant>,
    ) -> Result<(), Halt> {
        if since.get_or_insert_with(Instant::now).elapsed() < WAIT_YIELD_BUDGET {
            std::hint::spin_loop();
            std::thread::yield_now();
        } else {
            self.stats.parks += 1;
            log.park(self.cursor, PARK_TIMEOUT);
        }
        ctl.check_spin(self.proc)
    }

    /// After a squash: drops the attempt's unspent dwell, then a jittered
    /// exponential yield; on an oversubscribed host this is also what
    /// hands the winner its timeslice.
    pub(crate) fn backoff(&mut self) {
        self.pending_dwell_ns = 0;
        self.squash_streak += 1;
        let yields = (1u32 << self.squash_streak.min(6)) + self.rng.random_range(0..4u32);
        for _ in 0..yields {
            std::thread::yield_now();
        }
    }

    /// Claims `slot`; the caller must have polled the log up to it, and
    /// must [`publish`](Receiver::publish) into it next. `Ok(false)` means
    /// the claim lost the tail race (someone else published; the caller
    /// re-validates against the winner).
    ///
    /// From a won claim until the publish every other worker's poll waits
    /// on this slot, and a worker death orphans it — so the chaos
    /// schedule's `Claim` kill and its publish delay land here, and
    /// nothing else may: the record is ready beforehand.
    pub(crate) fn claim(&mut self, log: &BusLog, slot: usize) -> Result<bool, Halt> {
        // An adopted slot was already won by a dead incarnation: publish
        // into it instead of re-claiming.
        if self.claimed_unpublished != Some(slot) && !log.try_claim(slot) {
            self.stats.claim_retries += 1;
            return Ok(false);
        }
        self.claimed_unpublished = Some(slot);
        if self.chaos.on_claim() {
            return Err(Halt::Killed { point: CrashPoint::Claim });
        }
        if let Some(d) = self.chaos.publish_delay() {
            self.stats.delayed_publishes += 1;
            std::thread::sleep(d);
        }
        Ok(true)
    }

    /// Publishes `record` into the `slot` just [claimed](Receiver::claim),
    /// stamped with the prefix this receiver applied before it: its
    /// cursor, which the supervisor's audit holds equal to `slot`. The
    /// audit, not the publisher, tells the watchdog the run moved.
    pub(crate) fn publish(
        &mut self,
        log: &BusLog,
        slot: usize,
        record: BusRecord,
    ) -> Result<(), Halt> {
        debug_assert_eq!(self.claimed_unpublished, Some(slot), "publish without a claim");
        let record = BusRecord { validated_to: self.cursor, ..record };
        log.publish(slot, record).map_err(|e| Halt::Bug(e.to_string()))?;
        self.claimed_unpublished = None;
        self.cursor = slot + 1;
        self.squash_streak = 0;
        Ok(())
    }

    pub(crate) fn dwell(&mut self, cycles: u32) {
        if self.compute_ns_per_kcycle == 0 {
            return;
        }
        self.pending_dwell_ns += cycles as u64 * self.compute_ns_per_kcycle / 1000;
        if self.pending_dwell_ns >= DWELL_FLUSH_NS {
            self.flush_dwell();
        }
    }

    pub(crate) fn flush_dwell(&mut self) {
        if self.pending_dwell_ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(self.pending_dwell_ns));
            self.pending_dwell_ns = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::RecordKind;
    use crate::stats::Audit;

    fn sets_after(reads: &[u32], writes: &[u32]) -> SpecSets {
        let mut sets = SpecSets::new(true, SignatureConfig::s14_tm().into_shared());
        reads.iter().for_each(|&a| sets.read(Addr::new(a)));
        writes.iter().for_each(|&a| sets.write(Addr::new(a)));
        sets
    }

    fn peer_bare(kind: RecordKind) -> BusRecord {
        BusRecord::bare(1, 0, kind)
    }

    /// A peer's commit of `writes`, as the bus would carry it.
    fn peer_record(writes: &[u32]) -> BusRecord {
        let (w_sig, exact_w) = sets_after(&[], writes).commit_payload();
        BusRecord { w_sig, exact_w, ..peer_bare(RecordKind::Commit) }
    }

    /// A peer's non-transactional store to `a`: its line and no signature.
    fn peer_store(a: u32) -> BusRecord {
        BusRecord { exact_w: vec![Addr::new(a).line(64)], ..peer_bare(RecordKind::NonTxStore) }
    }

    #[test]
    fn an_unpublished_payload_leaves_every_verdict_as_it_was() {
        // `W` is written with repeats, as a trace writes it: 200 appends of
        // two lines, short of the compaction bound.
        let writes: Vec<u32> = [0x2000, 0x2040].repeat(100);
        let mut sets = sets_after(&[0x1000, 0x1040, 0x9000], &writes);
        assert_eq!(sets.exact_w.lines.len(), 200, "not compacted yet");
        let records: Vec<BusRecord> =
            [&[0x1000][..], &[0x2040], &[0x7000, 0x7040], &[0x9000, 0x2000], &[]]
                .map(peer_record)
                .into();
        let verdicts = |sets: &SpecSets| -> Vec<(bool, Option<bool>, bool, Option<bool>)> {
            records
                .iter()
                .map(|rec| {
                    let (tls, tm) = (sets.verdict(rec, false), sets.verdict(rec, true));
                    (tls.exact, tls.sig, tm.exact, tm.sig)
                })
                .collect()
        };
        let before = verdicts(&sets);
        assert_eq!(before[0], (true, Some(true), true, Some(true)), "hits R");
        assert_eq!((before[1].0, before[1].2), (false, true), "hits W only");
        assert_eq!((before[2].0, before[2].2), (false, false), "disjoint");

        // A commit attempt that lost its claim: the payload was built and
        // dropped. The sets must still answer as if it never was.
        let (w_sig, exact_w) = sets.commit_payload();
        let line = |a| Addr::new(a).line(64);
        assert_eq!(exact_w, vec![line(0x2000), line(0x2040)]);
        assert_eq!(exact_w.capacity(), exact_w.len(), "copied out at its exact length");
        let w_sig = w_sig.expect("Bulk broadcasts W");
        assert!(exact_w.iter().all(|&l| w_sig.contains_line(l)), "containment");
        drop(w_sig);
        assert_eq!(verdicts(&sets), before);
        // The retry's payload is the same broadcast.
        let retry = sets.commit_payload();
        assert_eq!(retry, (Some(sets.w_sig.clone()), exact_w.clone()));

        // More repeats push the `W` log past its bound, so it compacts on
        // an append; a payload built after that is the same broadcast too.
        for a in [0x2040, 0x2000].repeat(LOG_COMPACT_MIN) {
            sets.write(Addr::new(a));
        }
        assert!(sets.exact_w.lines.len() < LOG_COMPACT_MIN, "compacted on an append");
        assert_eq!(verdicts(&sets), before);
        let (w_sig, after) = sets.commit_payload();
        assert_eq!((&w_sig, &after), (&retry.0, &exact_w));
        assert_eq!(verdicts(&sets), before);

        // The lost claim and its retry on a log: a peer wins slot 0 with a
        // record that misses this transaction, the poll applies it without
        // a squash, and the retry publishes the payload it already had.
        let cfg = ParConfig::default();
        let ctl = RunControl::new("par/tm/Bulk".into(), 2, &cfg);
        let log = BusLog::new(2);
        let mut rx = Receiver::new(0, &cfg, ctl.chaos.worker(0, 0));
        assert!(log.try_claim(0), "the peer wins the race");
        assert!(matches!(rx.claim(&log, 0), Ok(false)), "the claim is lost");
        log.publish(0, peer_record(&[0x7000, 0x7040])).unwrap();
        let squashed = rx.poll(&log, &ctl, |rec| Some(sets.verdict(rec, true)));
        assert!(matches!(squashed, Ok(false)));
        assert_eq!(verdicts(&sets), before);
        assert!(matches!(rx.claim(&log, 1), Ok(true)));
        let bare = BusRecord::bare(0, 0, RecordKind::Commit);
        assert!(rx.publish(&log, 1, BusRecord { w_sig, exact_w: after, ..bare }).is_ok());
        let published = log.get(1).expect("the retry published");
        assert_eq!(published.exact_w, exact_w);
        // Each record keeps what it broadcasts, not the log's length.
        assert_eq!(published.exact_w.capacity(), published.exact_w.len());
        assert_eq!(rx.stats.claim_retries, 1);
    }

    /// The access log answers as the set did: fed a stream with many
    /// repeats and a footprint up to 4× the compaction bound, every TM and
    /// TLS verdict — on commit and store records, under Bulk and Lazy —
    /// equals the one an `AddrSet` of the same accesses gives, a payload
    /// is that set sorted, and no log holds more than max(2·distinct,
    /// bound) lines.
    #[test]
    fn the_access_log_answers_as_the_set_did() {
        use bulk_mem::AddrSet;
        use bulk_rng::check::{run, Gen};
        use bulk_rng::{prop_assert, prop_assert_eq};

        let (mut compactions, mut hits, mut misses) = (0u32, 0u32, 0u32);
        run("the_access_log_answers_as_the_set_did", 64, |g| {
            let use_sigs = g.bool();
            let config = SignatureConfig::s14_tm().into_shared();
            let mut sets = SpecSets::new(use_sigs, config.clone());
            // The reference: the sets and signatures the log replaced.
            let fresh = || (AddrSet::<LineAddr>::default(), Signature::with_shared(config.clone()));
            let (mut r, mut w) = (fresh(), fresh());
            // Attempts, each ended by a squash or a commit, so a log that
            // grew large is cleared before a small footprint reuses it.
            for _ in 0..g.in_range(1..4u32) {
                let footprint = g.in_range(1..4 * LOG_COMPACT_MIN as u32 + 1);
                // Half the accesses go to a hot eighth of the footprint.
                let hot = (footprint / 8).max(1);
                let addr = |g: &mut Gen| {
                    let line = if g.bool() { g.in_range(0..hot) } else { g.in_range(0..footprint) };
                    Addr::new(line << 6)
                };
                // A peer's commit and store, to lines in and past the footprint.
                let peer = |g: &mut Gen| -> (BusRecord, BusRecord) {
                    let mut writer = SpecSets::new(use_sigs, config.clone());
                    for _ in 0..g.in_range(0..8u32) {
                        writer.write(Addr::new(g.in_range(0..footprint + 64) << 6));
                    }
                    let (w_sig, exact_w) = writer.commit_payload();
                    let commit = BusRecord { w_sig, exact_w, ..peer_bare(RecordKind::Commit) };
                    (commit, peer_store(g.in_range(0..footprint + 64) << 6))
                };
                for _ in 0..g.in_range(1..8 * LOG_COMPACT_MIN) {
                    let a = addr(g);
                    let (l, write) = (a.line(64), g.in_range(0..4u32) == 0);
                    let (len, log, (set, sig)) = if write {
                        let len = sets.exact_w.lines.len();
                        sets.write(a);
                        (len, &sets.exact_w, &mut w)
                    } else {
                        let len = sets.exact_r.lines.len();
                        sets.read(a);
                        (len, &sets.exact_r, &mut r)
                    };
                    set.insert(l);
                    sig.insert_line(l);
                    compactions += u32::from(log.lines.len() <= len);
                    prop_assert!(log.lines.len() <= (2 * set.len()).max(LOG_COMPACT_MIN));

                    match g.in_range(0..2048u32) {
                        // A verdict on each record shape, for each engine.
                        0..=15 => {
                            let (commit, store) = peer(g);
                            for rec in [&commit, &store] {
                                for with_writes in [false, true] {
                                    let v = sets.verdict(rec, with_writes);
                                    let hit = |l: &LineAddr| {
                                        r.0.contains(l) || (with_writes && w.0.contains(l))
                                    };
                                    prop_assert_eq!(v.exact, rec.exact_w.iter().any(hit));
                                    (hits, misses) =
                                        (hits + u32::from(v.exact), misses + u32::from(!v.exact));
                                    let sig = match &rec.w_sig {
                                        Some(c) => Some(
                                            c.intersects(&r.1)
                                                || (with_writes && c.intersects(&w.1)),
                                        ),
                                        None if use_sigs => Some(rec.exact_w.iter().any(|&l| {
                                            r.1.contains_line(l)
                                                || (with_writes && w.1.contains_line(l))
                                        })),
                                        None => None,
                                    };
                                    prop_assert_eq!(v.sig, sig);
                                }
                            }
                        }
                        // A payload: the set, sorted; `W` as the signature has it.
                        16..=19 => {
                            let (w_sig, exact_w) = sets.commit_payload();
                            let mut want: Vec<LineAddr> = w.0.iter().copied().collect();
                            want.sort_unstable();
                            prop_assert_eq!(exact_w, want);
                            prop_assert_eq!(w_sig, use_sigs.then(|| w.1.clone()));
                        }
                        _ => {}
                    }
                }
                sets.clear();
                (r, w) = (fresh(), fresh());
            }
            Ok(())
        });
        assert!(compactions > 0 && hits > 0 && misses > 0, "{compactions} {hits} {misses}");
    }

    /// The two substrates give one answer: `SpecSets` (par) and a `Bdm`
    /// (sim) fed the same accesses disambiguate a `W_C` — and a store's
    /// address — alike, the exact halves are plain set intersections, and
    /// no verdict is ever a miss.
    #[test]
    fn verdicts_agree_with_a_bdm_fed_the_same_accesses() {
        use bulk_core::Bdm;
        use bulk_mem::CacheGeometry;
        use bulk_rng::check::{run, Gen};
        use bulk_rng::{prop_assert_eq, prop_assert_ne};

        let mut seen = [0u32; 3]; // TP, FP, TN — in `Class` order
        run("verdicts_agree_with_a_bdm_fed_the_same_accesses", 256, |g| {
            let lines = |g: &mut Gen, max: usize| -> Vec<u32> {
                g.set_u32(0..max, 0..4096).into_iter().map(|line| line << 6).collect()
            };
            let (r, w, w_c) = (lines(g, 64), lines(g, 32), lines(g, 32));
            // Each set is accessed with repeats, as a trace accesses it.
            let with_repeats = |g: &mut Gen, set: &[u32]| -> Vec<u32> {
                let repeats = match set.len() {
                    0 => Vec::new(),
                    n => g.vec_of(0..2 * n, |g| set[g.in_range(0..n)]),
                };
                [set, &repeats].concat()
            };
            let (r_stream, w_stream) = (with_repeats(g, &r), with_repeats(g, &w));
            let (sets, rec) = (sets_after(&r_stream, &w_stream), peer_record(&w_c));
            let mut bdm = Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 1);
            let v = bdm.alloc_version().expect("one free slot");
            r_stream.iter().for_each(|&a| bdm.record_load(v, Addr::new(a)));
            w_stream.iter().for_each(|&a| bdm.record_store(v, Addr::new(a)));
            let d = bdm.disambiguate(v, rec.w_sig.as_ref().expect("Bulk broadcasts W"));
            let hits = |set: &[u32]| w_c.iter().any(|a| set.contains(a));

            let (tm, tls) = (sets.verdict(&rec, true), sets.verdict(&rec, false));
            prop_assert_eq!(tm.sig, Some(d.squash()));
            prop_assert_eq!(tls.sig, Some(d.conflicts_read));
            prop_assert_eq!(tm.exact, hits(&r) || hits(&w));
            prop_assert_eq!(tls.exact, hits(&r));
            let mut verdicts = vec![tm, tls];

            // A store, half the time to a line this worker touched.
            let touched: Vec<u32> = r.iter().chain(&w).copied().collect();
            let a = match touched.len() {
                n if n > 0 && g.bool() => touched[g.in_range(0..n)],
                _ => g.in_range(0..4096u32) << 6,
            };
            let (store, l) = (peer_store(a), Addr::new(a).line(64));
            let (tm, tls) = (sets.verdict(&store, true), sets.verdict(&store, false));
            prop_assert_eq!(tm.sig, Some(bdm.disambiguate_addr(v, Addr::new(a))));
            prop_assert_eq!(tls.sig, Some(bdm.read_signature(v).contains_line(l)));
            prop_assert_eq!(tm.exact, r.contains(&a) || w.contains(&a));
            prop_assert_eq!(tls.exact, r.contains(&a));
            verdicts.extend([tm, tls]);

            for v in verdicts {
                let class = Class::classify(v.sig == Some(true), v.exact);
                prop_assert_ne!(class, Class::FalseNegative);
                seen[class as usize] += 1;
            }
            Ok(())
        });
        assert!(seen.iter().all(|&n| n > 0), "TP, FP and TN must all occur: {seen:?}");
    }

    /// A store to a line nobody read squashes only when the address aliases
    /// in `R` — found here by asking the signature itself — and is then
    /// attributed to aliasing; an exact-set scheme gives it no signature
    /// verdict at all.
    #[test]
    fn an_aliasing_only_store_is_a_false_positive() {
        let reads: Vec<u32> = (0..512u32).map(|i| (i * 37) << 6).collect();
        let sets = sets_after(&reads, &[]);
        let r_sig = &sets.r_sig;
        let alias = (0..1u32 << 20)
            .map(|line| line << 6)
            .find(|a| !reads.contains(a) && r_sig.contains_line(Addr::new(*a).line(64)))
            .expect("512 lines alias somewhere in 2^20");
        for with_writes in [false, true] {
            let v = sets.verdict(&peer_store(alias), with_writes);
            assert_eq!((v.exact, v.sig), (false, Some(true)));
            assert_eq!(Class::classify(true, v.exact), Class::FalsePositive);
        }
        let mut lazy = SpecSets::new(false, SignatureConfig::s14_tm().into_shared());
        lazy.read(Addr::new(reads[0]));
        let v = lazy.verdict(&peer_store(reads[0]), false);
        assert_eq!((v.exact, v.sig), (true, None), "Lazy: the oracle decides");
    }

    #[test]
    fn poll_does_not_wait_on_an_adopted_slot() {
        // The dead incarnation claimed slot 1 and never published; this one
        // adopts it. Its polls see `cursor < tail`, so they leave the fast
        // path — and must still come back without waiting on their own slot
        // (a wait would end in the 50 ms watchdog's `Stalled`).
        let cfg = ParConfig { stall_timeout_ms: 50, ..ParConfig::default() };
        let ctl = RunControl::new("par/tls/Bulk".into(), 2, &cfg);
        let log = BusLog::new(2);
        assert!(log.try_claim(0));
        log.publish(0, peer_record(&[0x1000])).unwrap();
        assert!(log.try_claim(1));
        let mut rx = Receiver::new(0, &cfg, ctl.chaos.worker(0, 1));
        // Held from the start, as the supervisor hands it over: should this
        // incarnation die before it publishes, the slot is handed on again.
        rx.claimed_unpublished = Some(1);
        let mut seen = 0;
        for _ in 0..3 {
            let squashed = rx.poll(&log, &ctl, |_| {
                seen += 1;
                None
            });
            assert!(matches!(squashed, Ok(false)));
            assert_eq!(rx.cursor, 1, "stopped at the adopted slot");
        }
        assert_eq!((seen, rx.stats.slot_wait_spins), (1, 0), "record 0 applied once");
        // Publishing into the adopted slot skips the claim and moves on.
        assert!(matches!(rx.claim(&log, 1), Ok(true)));
        let published = rx.publish(&log, 1, BusRecord::bare(0, 0, RecordKind::Commit));
        assert!(published.is_ok());
        assert_eq!((rx.cursor, log.tail()), (2, 2));
        assert_eq!(log.get(1).map(|r| r.validated_to), Some(1), "stamped from the cursor");
        assert!(matches!(rx.poll(&log, &ctl, |_| None), Ok(false)), "fast path again");
    }

    #[test]
    fn a_record_published_past_the_applied_prefix_is_flagged_by_the_audit() {
        // A peer published slot 0, which this receiver never applied; it
        // claims slot 1 anyway (what claiming `log.tail()` instead of its
        // cursor would do). The record says what it validated, and the
        // audit catches the gap.
        let cfg = ParConfig::default();
        let ctl = RunControl::new("par/tm/Bulk".into(), 2, &cfg);
        let log = BusLog::new(2);
        assert!(log.try_claim(0));
        log.publish(0, peer_record(&[0x1000])).unwrap();
        let mut rx = Receiver::new(0, &cfg, ctl.chaos.worker(0, 0));
        assert!(matches!(rx.claim(&log, 1), Ok(true)));
        assert!(rx.publish(&log, 1, BusRecord::bare(0, 0, RecordKind::Commit)).is_ok());
        let mut stats = ParStats::default();
        Audit::new(&log, &ctl, 2, 2, 2, false).finish(&mut stats);
        let details: Vec<&str> = stats.violations.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(details, ["record 1 published after validating only 0 records"]);
    }
}
