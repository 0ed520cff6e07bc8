//! The worker-side half of the bus protocol, shared by the TM and TLS
//! engines: a [`Receiver`] applies the log to a worker exactly once and
//! publishes the worker's own records into it, and [`SpecSets`] is the
//! speculative read/write state those records are checked against.
//!
//! An engine keeps what differs: which records can squash it (TM: a
//! peer's `W_C` against `R ∪ W`, inside a transaction; TLS: a
//! predecessor's against `R`), when it may claim a slot, and what a
//! squash rewinds.

use crate::bus::{BusLog, BusRecord};
use crate::config::{ParConfig, StressConfig};
use crate::recover::{Halt, RunControl};
use crate::stats::WorkerStats;
use bulk_chaos::{CrashPoint, InvariantKind, WorkerChaos};
use bulk_core::SpilledVersion;
use bulk_live::{Checkpoint, CommitTicket, DedupFilter};
use bulk_mem::{Addr, LineAddr};
use bulk_rng::{Rng, SeedableRng, SmallRng};
use bulk_sig::{Signature, SignatureConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// Accumulated compute dwell is slept in chunks no smaller than this, so
/// fine-grained `Compute` ops don't turn into sub-microsecond sleeps.
const DWELL_FLUSH_NS: u64 = 50_000;

/// A receiver's verdict on one record: the exact oracle's, and the
/// signatures' when the record carries one.
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
    exact_r: HashSet<LineAddr>,
    exact_w: HashSet<LineAddr>,
}

impl SpecSets {
    pub(crate) fn new(use_sigs: bool, sig_config: Arc<SignatureConfig>) -> Self {
        SpecSets {
            use_sigs,
            r_sig: Signature::with_shared(sig_config.clone()),
            w_sig: Signature::with_shared(sig_config.clone()),
            sig_config,
            exact_r: HashSet::new(),
            exact_w: HashSet::new(),
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
    pub(crate) fn verdict(&self, rec: &BusRecord, with_writes: bool) -> Verdict {
        let exact = rec
            .exact_w
            .iter()
            .any(|l| self.exact_r.contains(l) || (with_writes && self.exact_w.contains(l)));
        let sig = rec.w_sig.as_ref().map(|w| {
            w.intersects(&self.r_sig) || (with_writes && w.intersects(&self.w_sig))
        });
        Verdict { exact, sig }
    }

    /// A signature holding exactly `line` (`None` for exact-set schemes).
    pub(crate) fn signature_of(&self, line: LineAddr) -> Option<Signature> {
        self.use_sigs.then(|| {
            let mut s = Signature::with_shared(self.sig_config.clone());
            s.insert_line(line);
            s
        })
    }

    /// The commit payload — `W` moved out, the exact sets sorted — as
    /// `(w_sig, exact_w, exact_r)`.
    pub(crate) fn commit_payload(&mut self) -> (Option<Signature>, Vec<LineAddr>, Vec<LineAddr>) {
        let sorted = |set: &HashSet<LineAddr>| {
            let mut v: Vec<LineAddr> = set.iter().copied().collect();
            v.sort_unstable();
            v
        };
        let fresh = || Signature::with_shared(self.sig_config.clone());
        let w_sig = self.use_sigs.then(|| std::mem::replace(&mut self.w_sig, fresh()));
        (w_sig, sorted(&self.exact_w), sorted(&self.exact_r))
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
    stress: Option<StressConfig>,
    rng: SmallRng,
    chaos: WorkerChaos,
    /// Records applied (or published) so far: the validated log prefix.
    pub cursor: usize,
    dedup: DedupFilter,
    /// Serial of the next ticket (a `Publish`-point death consumed
    /// `serial - 1` without publishing it).
    pub serial: u64,
    squash_streak: u32,
    pending_dwell_ns: u64,
    /// Slot claimed (or adopted) whose record is not yet published. If
    /// the worker dies inside that window the supervisor fences it (TM)
    /// or hands it to the next incarnation (TLS).
    pub claimed_unpublished: Option<usize>,
    adopt: Option<usize>,
    pub stats: WorkerStats,
}

impl Receiver {
    /// A fresh incarnation: cursor 0 and an empty dedup filter, so a
    /// respawn replays the entire log, admitting each record exactly once.
    pub(crate) fn new(proc: usize, cfg: &ParConfig, chaos: WorkerChaos, resume: Resume) -> Self {
        Receiver {
            proc,
            compute_ns_per_kcycle: cfg.compute_ns_per_kcycle,
            stress: cfg.stress,
            rng: SmallRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64 ^ proc as u64)),
            chaos,
            cursor: 0,
            dedup: DedupFilter::new(),
            serial: resume.serial,
            squash_streak: 0,
            pending_dwell_ns: 0,
            claimed_unpublished: None,
            adopt: resume.adopt,
            stats: WorkerStats::default(),
        }
    }

    /// Applies every record published since the last poll. `check` is the
    /// engine's conflict rule (`None`: this record cannot squash the worker
    /// now). Returns `Ok(true)` if a record squashed the running attempt;
    /// the engine then rewinds.
    ///
    /// Waiting on a claimed-but-unpublished slot checks the abort flag
    /// and the wall-clock watchdog, so a dead or hung peer halts the
    /// worker with a typed cause instead of hanging it.
    pub(crate) fn poll(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        mut check: impl FnMut(&BusRecord) -> Option<Verdict>,
    ) -> Result<bool, Halt> {
        if let Some(d) = self.chaos.maybe_stall() {
            self.stats.injected_stalls += 1;
            std::thread::sleep(d);
        }
        let mut squashed = false;
        let tail = log.tail();
        // An adopted (still unpublished) slot is the worker's own: there
        // is nothing to apply, and waiting on it would deadlock.
        while self.cursor < tail && self.adopt != Some(self.cursor) {
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
            ctl.check_spin(self.proc)?;
            std::hint::spin_loop();
            std::thread::yield_now();
        };
        if self.dedup.admit(rec.ticket) {
            self.dedup.record_application(rec.ticket);
            let verdict = if *squashed { None } else { check(rec) };
            if let Some(v) = verdict {
                self.stats.audit_checks += u64::from(v.sig.is_some());
                if v.exact && v.sig == Some(false) {
                    // A real conflict the signatures missed: the
                    // one-sided-error guarantee is broken. Record it
                    // and squash anyway so execution stays safe.
                    self.stats.violations.push(ctl.violation(
                        InvariantKind::SignatureContainment,
                        self.proc,
                        rec.ticket.serial,
                        "broadcast W_C missed an exact conflict",
                    ));
                }
                if v.exact || v.sig == Some(true) {
                    self.stats.squashes += 1;
                    self.stats.false_squashes += u64::from(!v.exact);
                    *squashed = true;
                }
            }
            self.maybe_redeliver(rec.ticket);
        } // else: duplicate delivery — dropped, never applied
        self.cursor += 1;
        if self.chaos.on_apply() {
            return Err(Halt::Killed { point: CrashPoint::Apply });
        }
        Ok(())
    }

    /// Stress mode: deliver the record to this receiver again. The dedup
    /// filter must drop it; an admitted re-delivery is recorded as an
    /// application so `duplicate_applications` exposes the bug.
    fn maybe_redeliver(&mut self, ticket: CommitTicket) {
        let Some(stress) = self.stress else { return };
        if self.rng.random_range(0..100u32) < stress.redeliver_percent as u32 {
            self.stats.stress_redeliveries += 1;
            if self.dedup.admit(ticket) {
                self.dedup.record_application(ticket);
            }
        }
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

    /// Claims `slot` and publishes `record(ticket)` into it. `Ok(false)`
    /// means the claim lost the tail race (someone else published; the
    /// caller re-validates against the winner). The caller must have
    /// polled the log up to `slot`.
    ///
    /// The window between claim and publish is where a worker death
    /// orphans a slot, so it is where the chaos schedule's `Claim` and
    /// `Publish` kills and its publish delay land.
    pub(crate) fn claim_and_publish(
        &mut self,
        log: &BusLog,
        ctl: &RunControl,
        slot: usize,
        record: impl FnOnce(CommitTicket) -> BusRecord,
    ) -> Result<bool, Halt> {
        if self.adopt == Some(slot) {
            // The dead incarnation already won this claim; publish into
            // the orphaned slot instead of re-claiming.
            self.adopt = None;
        } else if !log.try_claim(slot) {
            self.stats.claim_retries += 1;
            return Ok(false);
        }
        self.claimed_unpublished = Some(slot);
        match self.chaos.on_claim() {
            Some(CrashPoint::Publish) => {
                // The nastiest window: a serial is consumed but its
                // record never reaches the log.
                let _ = self.stamp_ticket(log);
                return Err(Halt::Killed { point: CrashPoint::Publish });
            }
            Some(point) => return Err(Halt::Killed { point }),
            None => {}
        }
        if let Some(d) = self.chaos.publish_delay() {
            self.stats.delayed_publishes += 1;
            std::thread::sleep(d);
        }
        let ticket = self.stamp_ticket(log);
        log.publish(slot, record(ticket)).map_err(|e| Halt::Bug(e.to_string()))?;
        self.claimed_unpublished = None;
        ctl.progress();
        // Account the own broadcast in the dedup filter so every
        // receiver (including self) tracks every record uniformly.
        self.dedup.admit(ticket);
        self.dedup.record_application(ticket);
        self.cursor = slot + 1;
        self.squash_streak = 0;
        Ok(true)
    }

    fn stamp_ticket(&mut self, log: &BusLog) -> CommitTicket {
        if let Some(stress) = self.stress {
            if self.rng.random_range(0..100u32) < stress.epoch_bump_percent as u32 {
                log.bump_epoch();
                self.stats.stress_epoch_bumps += 1;
            }
        }
        let t = CommitTicket { epoch: log.epoch(), committer: self.proc, serial: self.serial };
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

    /// The incarnation's counters, dedup totals folded in.
    pub(crate) fn take_stats(&mut self) -> WorkerStats {
        self.stats.dedup_drops = self.dedup.drops();
        self.stats.duplicate_applications = self.dedup.duplicate_applications();
        std::mem::take(&mut self.stats)
    }
}
