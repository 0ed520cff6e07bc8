//! The daemon's job table: submission, bounded-concurrency execution,
//! per-job observability and wall-clock reaping.
//!
//! Every job owns its own [`Obs`] bundle, so concurrent runs never share
//! counters and a scrape can label each job's metrics independently. A
//! worker thread executes the run; the connection handler streams the
//! job's event JSONL by polling [`JobTable::job_obs`]; the daemon's
//! supervisor calls [`JobTable::reap_stalled`] so a hung run becomes a
//! typed `job-timeout` failure instead of a wedged daemon.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bulk_live::{LivenessKind, LivenessViolation, WallClockWatchdog};
use bulk_obs::{Obs, Registry};
use bulk_par::{ParConfig, ParRuntime, RunDetail, RunReport, Runtime, RuntimeError};
use bulk_sim::SimConfig;
use bulk_trace::jobspec::{JobRuntime, JobSpec, Machine};
use bulk_trace::profiles;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished cleanly.
    Done {
        /// Committed transactions/tasks.
        commits: u64,
        /// Squashes / restarts.
        squashes: u64,
    },
    /// Finished with a typed error (run failure, timeout, shutdown).
    Failed {
        /// Stable kebab-case error class (`job-timeout`, `liveness`, …).
        kind: String,
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl JobState {
    /// Stable lowercase state name for status lines and `/jobs`.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done { .. } | JobState::Failed { .. })
    }
}

/// A point-in-time view of one job, for status lines and the scrape.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job's identity (client-chosen or generated).
    pub id: String,
    /// The accepted spec.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// The job's observability bundle.
    pub obs: Arc<Obs>,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    obs: Arc<Obs>,
    /// Armed when the job starts running; the supervisor polls it.
    watchdog: Option<Arc<WallClockWatchdog>>,
    /// Set by the reaper / shutdown; workers observe it and abandon
    /// their run, stream pumps stop waiting.
    cancelled: Arc<AtomicBool>,
    /// Ensures the worker slot is given back exactly once even when a
    /// cancelled worker finishes after the reaper already failed the job.
    slot_released: Arc<AtomicBool>,
}

/// The daemon's shared job registry with a bounded worker pool.
pub struct JobTable {
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    next_id: AtomicU64,
    slots: Mutex<usize>,
    slots_cv: Condvar,
    default_timeout_ms: u64,
    event_capacity: usize,
}

impl JobTable {
    /// A table running at most `max_jobs` jobs concurrently. Jobs whose
    /// spec has no `timeout_ms` get `default_timeout_ms` (0 disables the
    /// watchdog); each job's event ring holds `event_capacity` events.
    pub fn new(max_jobs: usize, default_timeout_ms: u64, event_capacity: usize) -> Self {
        JobTable {
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            slots: Mutex::new(max_jobs.max(1)),
            slots_cv: Condvar::new(),
            default_timeout_ms,
            event_capacity,
        }
    }

    /// Validates and registers a spec, returning the job id. The
    /// app/scheme pair is checked here so a bad submission fails at the
    /// socket, not minutes later on a worker.
    ///
    /// # Errors
    ///
    /// Returns a message on unknown app, unknown scheme or duplicate id.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        match spec.machine {
            Machine::Tm => {
                profiles::tm_profile(&spec.app)
                    .ok_or_else(|| format!("unknown TM app `{}`", spec.app))?;
                spec.scheme.parse::<bulk_tm::Scheme>()?;
            }
            Machine::Tls => {
                profiles::tls_profile(&spec.app)
                    .ok_or_else(|| format!("unknown TLS app `{}`", spec.app))?;
                spec.scheme.parse::<bulk_tls::TlsScheme>()?;
            }
        }
        let id = match &spec.id {
            Some(id) if !id.is_empty() => id.clone(),
            _ => format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed)),
        };
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        if jobs.contains_key(&id) {
            return Err(format!("job id `{id}` already exists"));
        }
        jobs.insert(
            id.clone(),
            JobEntry {
                spec,
                state: JobState::Queued,
                obs: Arc::new(Obs::with_event_capacity(self.event_capacity)),
                watchdog: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                slot_released: Arc::new(AtomicBool::new(false)),
            },
        );
        Ok(id)
    }

    /// Executes job `id` to completion on the calling thread (the worker
    /// entry point): waits for a pool slot, runs, records the terminal
    /// state. A job cancelled before or during the run keeps the state
    /// the canceller wrote and its result is discarded.
    pub fn run(&self, id: &str) {
        let (spec, obs, cancelled, slot_released) = {
            let jobs = self.jobs.lock().expect("job table poisoned");
            let Some(e) = jobs.get(id) else { return };
            (
                e.spec.clone(),
                Arc::clone(&e.obs),
                Arc::clone(&e.cancelled),
                Arc::clone(&e.slot_released),
            )
        };
        // Bounded concurrency: block until a slot frees up.
        {
            let mut slots = self.slots.lock().expect("slot pool poisoned");
            while *slots == 0 {
                slots = self.slots_cv.wait(slots).expect("slot pool poisoned");
            }
            *slots -= 1;
        }
        let release = |released: &AtomicBool| {
            if !released.swap(true, Ordering::AcqRel) {
                *self.slots.lock().expect("slot pool poisoned") += 1;
                self.slots_cv.notify_one();
            }
        };
        // Arm the watchdog only now: queue wait does not burn the
        // wall-clock budget.
        let timeout_ms = spec.timeout_ms.unwrap_or(self.default_timeout_ms);
        let watchdog = Arc::new(WallClockWatchdog::new(timeout_ms.saturating_mul(1_000_000)));
        {
            let mut jobs = self.jobs.lock().expect("job table poisoned");
            let Some(e) = jobs.get_mut(id) else {
                release(&slot_released);
                return;
            };
            if e.state != JobState::Queued {
                // Cancelled (shutdown) while queued.
                release(&slot_released);
                return;
            }
            e.state = JobState::Running;
            e.watchdog = Some(Arc::clone(&watchdog));
        }
        watchdog.note_progress();
        // Test hook: simulate a hung run. Sleeps in small steps so a
        // reaped job's worker exits promptly instead of oversleeping.
        if let Some(hang) = spec.hang_ms {
            let mut waited = 0u64;
            while waited < hang && !cancelled.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(5));
                waited += 5;
            }
        }
        let outcome = if cancelled.load(Ordering::Acquire) {
            None
        } else {
            Some(execute(&spec, &obs))
        };
        obs.publish_stream_stats();
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        if let Some(e) = jobs.get_mut(id) {
            // The reaper may have failed the job while we ran; its typed
            // state wins and the late result is discarded.
            if e.state == JobState::Running && !cancelled.load(Ordering::Acquire) {
                e.state = match outcome {
                    Some(Ok((commits, squashes))) => JobState::Done { commits, squashes },
                    Some(Err((kind, detail))) => JobState::Failed { kind, detail },
                    None => JobState::Failed {
                        kind: "cancelled".to_string(),
                        detail: "job cancelled before execution".to_string(),
                    },
                };
            }
        }
        drop(jobs);
        release(&slot_released);
    }

    /// Fails every `Running` job whose wall-clock watchdog has tripped,
    /// constructing the typed [`LivenessKind::JobTimeout`] violation.
    /// Returns how many jobs were reaped. The worker thread may still be
    /// wedged — it is abandoned, its slot reclaimed, and the daemon
    /// carries on.
    pub fn reap_stalled(&self) -> usize {
        let mut reaped = 0;
        let mut to_release = Vec::new();
        {
            let mut jobs = self.jobs.lock().expect("job table poisoned");
            for (id, e) in jobs.iter_mut() {
                let stalled =
                    e.state == JobState::Running && e.watchdog.as_ref().is_some_and(|w| w.stalled());
                if !stalled {
                    continue;
                }
                e.cancelled.store(true, Ordering::Release);
                let timeout_ms = e
                    .watchdog
                    .as_ref()
                    .map_or(0, |w| w.timeout_ns() / 1_000_000);
                let violation = LivenessViolation {
                    kind: LivenessKind::JobTimeout,
                    scheme: format!("{}/{}", e.spec.machine.as_str(), e.spec.scheme),
                    thread: None,
                    cycle: 0,
                    seed: Some(e.spec.seed),
                    detail: format!("job `{id}` exceeded its {timeout_ms} ms wall-clock budget"),
                };
                e.state = JobState::Failed {
                    kind: LivenessKind::JobTimeout.as_str().to_string(),
                    detail: violation.to_string(),
                };
                to_release.push(Arc::clone(&e.slot_released));
                reaped += 1;
            }
        }
        // Reclaim the wedged workers' slots so the pool cannot drain.
        for released in to_release {
            if !released.swap(true, Ordering::AcqRel) {
                *self.slots.lock().expect("slot pool poisoned") += 1;
                self.slots_cv.notify_one();
            }
        }
        reaped
    }

    /// Cancels every non-terminal job (graceful shutdown): queued jobs
    /// fail immediately, running workers observe the flag and abandon.
    pub fn cancel_all(&self) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        for e in jobs.values_mut() {
            if e.state.is_terminal() {
                continue;
            }
            e.cancelled.store(true, Ordering::Release);
            e.state = JobState::Failed {
                kind: "shutdown".to_string(),
                detail: "daemon shut down before the job finished".to_string(),
            };
        }
    }

    /// The job's observability bundle, if the job exists.
    pub fn job_obs(&self, id: &str) -> Option<Arc<Obs>> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.get(id).map(|e| Arc::clone(&e.obs))
    }

    /// The job's current state, if the job exists.
    pub fn state(&self, id: &str) -> Option<JobState> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.get(id).map(|e| e.state.clone())
    }

    /// Snapshots of every job, in id order.
    pub fn snapshot(&self) -> Vec<JobSnapshot> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.iter()
            .map(|(id, e)| JobSnapshot {
                id: id.clone(),
                spec: e.spec.clone(),
                state: e.state.clone(),
                obs: Arc::clone(&e.obs),
            })
            .collect()
    }

    /// Counts of (queued, running, done, failed) jobs.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let jobs = self.jobs.lock().expect("job table poisoned");
        let mut c = (0, 0, 0, 0);
        for e in jobs.values() {
            match e.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done { .. } => c.2 += 1,
                JobState::Failed { .. } => c.3 += 1,
            }
        }
        c
    }
}

/// Runs the spec to completion, recording into `obs`. Returns
/// `(commits, squashes)` or a `(kind, detail)` failure.
fn execute(spec: &JobSpec, obs: &Arc<Obs>) -> Result<(u64, u64), (String, String)> {
    let unknown_app = || ("invalid-workload".to_string(), format!("app `{}`", spec.app));
    let par = || ParRuntime::new(ParConfig { seed: spec.seed, ..ParConfig::default() });
    match spec.machine {
        Machine::Tm => {
            let mut p = profiles::tm_profile(&spec.app).ok_or_else(unknown_app)?;
            if let Some(txs) = spec.txs {
                p.txs_per_thread = txs as usize;
            }
            let scheme = spec.scheme.parse().map_err(bad_scheme)?;
            let (wl, cfg) = (p.generate(spec.seed), SimConfig::tm_default());
            match spec.runtime {
                JobRuntime::Sim => {
                    let stats = bulk_tm::run_tm_observed(&wl, scheme, &cfg, Arc::clone(obs));
                    check_sim(&stats.violations, &stats.liveness_violations)?;
                    Ok((stats.commits, stats.squashes))
                }
                JobRuntime::Par => {
                    let r = par().run_tm(&wl, scheme, &cfg).map_err(par_error)?;
                    finish_par(obs.registry(), &r)
                }
            }
        }
        Machine::Tls => {
            let mut p = profiles::tls_profile(&spec.app).ok_or_else(unknown_app)?;
            if let Some(tasks) = spec.tasks {
                p.tasks = tasks as usize;
            }
            let scheme = spec.scheme.parse().map_err(bad_scheme)?;
            let (wl, cfg) = (p.generate(spec.seed), SimConfig::tls_default());
            match spec.runtime {
                JobRuntime::Sim => {
                    let stats = bulk_tls::run_tls_observed(&wl, scheme, &cfg, Arc::clone(obs));
                    check_sim(&stats.violations, &stats.liveness_violations)?;
                    Ok((stats.commits, stats.squashes))
                }
                JobRuntime::Par => {
                    let r = par().run_tls(&wl, scheme, &cfg).map_err(par_error)?;
                    finish_par(obs.registry(), &r)
                }
            }
        }
    }
}

fn bad_scheme(e: String) -> (String, String) {
    ("invalid-workload".to_string(), e)
}

fn check_sim(
    violations: &[bulk_chaos::InvariantViolation],
    liveness: &[LivenessViolation],
) -> Result<(), (String, String)> {
    if let Some(v) = violations.first() {
        return Err(("invariant".to_string(), v.to_string()));
    }
    if let Some(v) = liveness.first() {
        return Err(("liveness".to_string(), v.to_string()));
    }
    Ok(())
}

/// Publishes a parallel run's counters into the job registry under
/// `par.*` (the par runtime has no simulated clock, so it reports stats
/// instead of streaming events) and checks its auditor verdict.
fn finish_par(reg: &Registry, r: &RunReport) -> Result<(u64, u64), (String, String)> {
    reg.counter("par.commits").add(r.commits);
    reg.counter("par.squashes").add(r.squashes);
    reg.gauge("par.wall_ns").set(r.wall_ns);
    if let RunDetail::Par(s) = &r.detail {
        reg.counter("par.false_squashes").add(s.false_squashes);
        reg.counter("par.claim_retries").add(s.claim_retries);
        reg.counter("par.slot_wait_spins").add(s.slot_wait_spins);
        reg.counter("par.records").add(s.records);
        reg.counter("par.dedup_drops").add(s.dedup_drops);
        reg.counter("par.worker_crashes").add(s.worker_crashes);
        reg.counter("par.respawns").add(s.respawns);
        reg.counter("par.fences").add(s.fences);
    }
    if let Some(v) = r.violations.first() {
        return Err(("invariant".to_string(), v.to_string()));
    }
    Ok((r.commits, r.squashes))
}

fn par_error(e: RuntimeError) -> (String, String) {
    let kind = match &e {
        RuntimeError::UnsupportedScheme { .. } => "unsupported-scheme",
        RuntimeError::InvalidWorkload(_) => "invalid-workload",
        RuntimeError::WorkerDied { .. } => "worker-died",
        RuntimeError::Liveness(_) => "liveness",
        RuntimeError::ProtocolBug(_) => "protocol-bug",
    };
    (kind.to_string(), e.to_string())
}
