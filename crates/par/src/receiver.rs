//! The worker-side half of the bus protocol, shared by the TM and TLS
//! engines: a [`Receiver`] walks the log with a cursor, applying each
//! record to a worker exactly once, and publishes the worker's own
//! records into it; [`SpecSets`] is the speculative read/write state
//! those records are checked against.
//!
//! An engine keeps what differs: which records can squash it (TM: a
//! peer's `W_C` against `R ∪ W`, inside a transaction; TLS: a
//! predecessor's against `R`), when it may claim a slot, and what a
//! squash rewinds.

use crate::bus::{BusLog, BusRecord, CommitTicket, RecordKind};
use crate::config::ParConfig;
use crate::recover::{Halt, RunControl};
use crate::stats::WorkerStats;
use bulk_chaos::{CrashPoint, InvariantKind, WorkerChaos};
use bulk_core::SpilledVersion;
use bulk_live::Checkpoint;
use bulk_mem::{Addr, AddrSet, LineAddr};
use bulk_obs::Verdict as Class;
use bulk_rng::{Rng, SeedableRng, SmallRng};
use bulk_sig::{Signature, SignatureConfig};
use std::sync::Arc;

/// Accumulated compute dwell is slept in chunks no smaller than this, so
/// fine-grained `Compute` ops don't turn into sub-microsecond sleeps.
const DWELL_FLUSH_NS: u64 = 50_000;

/// A receiver's verdict on one record: the exact oracle's, and the
/// signatures' when the record carries one — the two halves
/// [`bulk_obs::Verdict::classify`] attributes.
pub(crate) struct Verdict {
    pub exact: bool,
    pub sig: Option<bool>,
}

/// A worker's speculative state: exact oracle sets (always) and R/W
/// signatures (Bulk schemes), at line granularity.
pub(crate) struct SpecSets {
    use_sigs: bool,
    sig_config: Arc<SignatureConfig>,
    r_sig: Signature,
    w_sig: Signature,
    exact_r: AddrSet<LineAddr>,
    exact_w: AddrSet<LineAddr>,
}

impl SpecSets {
    pub(crate) fn new(use_sigs: bool, sig_config: Arc<SignatureConfig>) -> Self {
        SpecSets {
            use_sigs,
            r_sig: Signature::with_shared(sig_config.clone()),
            w_sig: Signature::with_shared(sig_config.clone()),
            sig_config,
            exact_r: AddrSet::default(),
            exact_w: AddrSet::default(),
        }
    }

    /// The line `a` falls in, at the signatures' granularity.
    pub(crate) fn line(&self, a: Addr) -> LineAddr {
        a.line(self.sig_config.line_bytes())
    }

    pub(crate) fn read(&mut self, a: Addr) {
        let line = self.line(a);
        self.exact_r.insert(line);
        if self.use_sigs {
            self.r_sig.insert_line(line);
        }
    }

    pub(crate) fn write(&mut self, a: Addr) {
        let line = self.line(a);
        self.exact_w.insert(line);
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
            .any(|l| self.exact_r.contains(l) || (with_writes && self.exact_w.contains(l)));
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
    /// lines, sorted — as `(w_sig, exact_w)`; `R` is not read. It changes
    /// nothing, so a publisher builds it before it claims a slot
    /// (DESIGN.md §18).
    pub(crate) fn commit_payload(&self) -> (Option<Signature>, Vec<LineAddr>) {
        let mut exact_w: Vec<LineAddr> = self.exact_w.iter().copied().collect();
        exact_w.sort_unstable();
        (self.use_sigs.then(|| self.w_sig.clone()), exact_w)
    }

    /// The signatures as they stand, in the form a context switch would
    /// spill them.
    pub(crate) fn spilled(&self) -> SpilledVersion {
        SpilledVersion {
            r: self.r_sig.clone(),
            w: self.w_sig.clone(),
            w_sh: None,
            overflowed: false,
        }
    }

    /// Crash-consistency checkpoint of [`SpecSets::spilled`].
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(self.spilled(), Vec::new())
    }

    /// Makes `ckpt` — an earlier [`SpecSets::checkpoint`] of these sets —
    /// equal to a fresh one by copying the signature bits over in place.
    pub(crate) fn refresh_checkpoint(&self, ckpt: &mut Checkpoint) {
        ckpt.spilled.r.copy_from(&self.r_sig);
        ckpt.spilled.w.copy_from(&self.w_sig);
    }
}

/// Where a respawned incarnation picks the protocol up.
#[derive(Default)]
pub(crate) struct Resume {
    /// Next unconsumed ticket serial.
    pub serial: u64,
    /// A slot the dead incarnation already claimed; this one publishes
    /// into it without re-claiming.
    pub adopt: Option<usize>,
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
    /// Serial of the next ticket (a `Publish`-point death consumed
    /// `serial - 1` without publishing it).
    pub serial: u64,
    squash_streak: u32,
    pending_dwell_ns: u64,
    /// Slot claimed (or adopted from a dead incarnation) whose record is
    /// not yet published. If the worker dies inside that window the
    /// supervisor fences it (TM) or hands it to the next incarnation
    /// (TLS) — however often the adopter itself dies before publishing.
    pub claimed_unpublished: Option<usize>,
    pub stats: WorkerStats,
}

impl Receiver {
    /// A fresh incarnation: cursor 0, so a respawn replays the entire log
    /// and applies each record once, holding the slot it adopts (if any)
    /// from the start.
    pub(crate) fn new(proc: usize, cfg: &ParConfig, chaos: WorkerChaos, resume: Resume) -> Self {
        Receiver {
            proc,
            compute_ns_per_kcycle: cfg.compute_ns_per_kcycle,
            rng: SmallRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64 ^ proc as u64)),
            chaos,
            cursor: 0,
            serial: resume.serial,
            squash_streak: 0,
            pending_dwell_ns: 0,
            claimed_unpublished: resume.adopt,
            stats: WorkerStats::default(),
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
        let rec = loop {
            if let Some(r) = log.get(self.cursor) {
                break r;
            }
            self.stats.slot_wait_spins += 1;
            ctl.check_spin(self.proc)?;
            std::hint::spin_loop();
            std::thread::yield_now();
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
                    rec.ticket.serial,
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
    /// schedule's `Claim` and `Publish` kills and its publish delay land
    /// here, and nothing else may: the record is ready beforehand.
    pub(crate) fn claim(&mut self, log: &BusLog, slot: usize) -> Result<bool, Halt> {
        // An adopted slot was already won by a dead incarnation: publish
        // into it instead of re-claiming.
        if self.claimed_unpublished != Some(slot) && !log.try_claim(slot) {
            self.stats.claim_retries += 1;
            return Ok(false);
        }
        self.claimed_unpublished = Some(slot);
        match self.chaos.on_claim() {
            Some(CrashPoint::Publish) => {
                // The nastiest window: a serial is consumed but its
                // record never reaches the log.
                let _ = self.stamp_ticket();
                return Err(Halt::Killed { point: CrashPoint::Publish });
            }
            Some(point) => return Err(Halt::Killed { point }),
            None => {}
        }
        if let Some(d) = self.chaos.publish_delay() {
            self.stats.delayed_publishes += 1;
            std::thread::sleep(d);
        }
        Ok(true)
    }

    /// Stamps the next ticket and publishes `record(ticket)` into the
    /// `slot` just [claimed](Receiver::claim).
    pub(crate) fn publish(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        slot: usize,
        record: impl FnOnce(CommitTicket) -> BusRecord,
    ) -> Result<(), Halt> {
        debug_assert_eq!(self.claimed_unpublished, Some(slot), "publish without a claim");
        let ticket = self.stamp_ticket();
        log.publish(slot, record(ticket)).map_err(|e| Halt::Bug(e.to_string()))?;
        self.claimed_unpublished = None;
        ctl.progress();
        self.cursor = slot + 1;
        self.squash_streak = 0;
        Ok(())
    }

    fn stamp_ticket(&mut self) -> CommitTicket {
        let t = CommitTicket { committer: self.proc, serial: self.serial };
        self.serial += 1;
        t
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

    fn sets_after(reads: &[u32], writes: &[u32]) -> SpecSets {
        let mut sets = SpecSets::new(true, SignatureConfig::s14_tm().into_shared());
        reads.iter().for_each(|&a| sets.read(Addr::new(a)));
        writes.iter().for_each(|&a| sets.write(Addr::new(a)));
        sets
    }

    fn peer_bare(kind: RecordKind) -> BusRecord {
        BusRecord::bare(CommitTicket { committer: 1, serial: 0 }, 1, 0, kind, 0)
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
        let sets = sets_after(&[0x1000, 0x1040, 0x9000], &[0x2000, 0x2040]);
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
        let w_sig = w_sig.expect("Bulk broadcasts W");
        assert!(exact_w.iter().all(|&l| w_sig.contains_line(l)), "containment");
        drop(w_sig);
        assert_eq!(verdicts(&sets), before);
        // The retry's payload is the same broadcast.
        assert_eq!(sets.commit_payload(), (Some(sets.spilled().w), exact_w));
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
            let (sets, rec) = (sets_after(&r, &w), peer_record(&w_c));
            let mut bdm = Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 1);
            let v = bdm.alloc_version().expect("one free slot");
            r.iter().for_each(|&a| bdm.record_load(v, Addr::new(a)));
            w.iter().for_each(|&a| bdm.record_store(v, Addr::new(a)));
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
        let r_sig = sets.spilled().r;
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
        let resume = Resume { serial: 0, adopt: Some(1) };
        let mut rx = Receiver::new(0, &cfg, ctl.chaos.worker(0, 1), resume);
        // Held from the start: should this incarnation die before it
        // publishes, the supervisor hands the slot on again.
        assert_eq!(rx.claimed_unpublished, Some(1));
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
        let published =
            rx.publish(&log, &ctl, 1, |ticket| BusRecord::bare(ticket, 0, 0, RecordKind::Commit, 1));
        assert!(published.is_ok());
        assert_eq!((rx.cursor, log.tail()), (2, 2));
        assert!(matches!(rx.poll(&log, &ctl, |_| None), Ok(false)), "fast path again");
    }

    #[test]
    fn a_refreshed_checkpoint_equals_a_fresh_one() {
        let mut sets = sets_after(&[0x1000], &[0x2000]);
        let mut ckpt = sets.checkpoint();
        sets.clear();
        assert!(ckpt.verify(&sets.spilled(), &[]).is_err(), "stale until refreshed");
        sets.refresh_checkpoint(&mut ckpt);
        let fresh = sets.checkpoint();
        assert_eq!(ckpt.verify(&fresh.spilled, &fresh.overflow_lines), Ok(()));
        assert_eq!(fresh.verify(&ckpt.spilled, &ckpt.overflow_lines), Ok(()));
    }
}
