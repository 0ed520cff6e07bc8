//! The daemon's job table: submission, bounded-concurrency execution,
//! per-job observability and wall-clock reaping.
//!
//! Every job owns its own [`Obs`] bundle, so concurrent runs never share
//! counters and a scrape can label each job's metrics independently. A
//! worker thread executes the run; the connection handler streams the
//! job's event JSONL from the bundle [`JobTable::get`] hands it; the daemon's
//! supervisor calls [`JobTable::reap_stalled`] so a hung run becomes a
//! typed `job-timeout` failure instead of a wedged daemon.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bulk_live::{LivenessKind, LivenessViolation, WallClockWatchdog};
use bulk_obs::{json_escape, Obs};
use bulk_par::{runtime_for, JobPlan, RunOptions};
use bulk_trace::jobspec::JobSpec;

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

impl JobSnapshot {
    fn of((id, e): (&String, &JobEntry)) -> JobSnapshot {
        JobSnapshot {
            id: id.clone(),
            spec: e.spec.clone(),
            state: e.state.clone(),
            obs: Arc::clone(&e.obs),
        }
    }
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

    /// Validates and registers a spec, returning the job id. The spec is
    /// resolved here exactly as the worker will resolve it, so a bad
    /// submission fails at the socket, not minutes later on a worker.
    ///
    /// # Errors
    ///
    /// Returns a message on unknown app, unknown scheme or duplicate id.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        JobPlan::resolve(&spec).map_err(|e| e.to_string())?;
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

    /// Fails a job that will never get a worker, so whoever streams it
    /// reads a typed `done` line instead of polling `queued` for the life
    /// of the daemon. A job that already left `Queued` is left alone.
    pub fn fail_queued(&self, id: &str, kind: &str, detail: String) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        if let Some(e) = jobs.get_mut(id).filter(|e| e.state == JobState::Queued) {
            e.state = JobState::Failed { kind: kind.to_string(), detail };
        }
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

    /// The job's current state, if the job exists.
    pub fn state(&self, id: &str) -> Option<JobState> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.get(id).map(|e| e.state.clone())
    }

    /// A snapshot of job `id` alone, if it exists: what the connection
    /// handler needs for the one job it is serving, without cloning the
    /// whole table under the lock.
    pub fn get(&self, id: &str) -> Option<JobSnapshot> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.get_key_value(id).map(JobSnapshot::of)
    }

    /// Every job as a JSON object, comma-separated in id order: the one
    /// listing `status` and `GET /jobs` both wrap.
    pub fn list_json(&self) -> String {
        let jobs = self.jobs.lock().expect("job table poisoned");
        let each: Vec<String> = jobs
            .iter()
            .map(|(id, e)| {
                format!(
                    "{{\"job\": \"{}\", \"state\": \"{}\", \"machine\": \"{}\", \"scheme\": \"{}\", \"runtime\": \"{}\", \"seed\": {}}}",
                    json_escape(id),
                    e.state.as_str(),
                    e.spec.machine.as_str(),
                    json_escape(&e.spec.scheme),
                    e.spec.runtime.as_str(),
                    e.spec.seed
                )
            })
            .collect();
        each.join(", ")
    }

    /// Snapshots of every job, in id order.
    pub fn snapshot(&self) -> Vec<JobSnapshot> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.iter().map(JobSnapshot::of).collect()
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

/// Runs the spec to completion through the front door, recording into
/// `obs`. Returns `(commits, squashes)` or a `(kind, detail)` failure —
/// classified here once, so a `done` line's `"kind"` cannot differ by
/// substrate for the same failure.
fn execute(spec: &JobSpec, obs: &Arc<Obs>) -> Result<(u64, u64), (String, String)> {
    let opts = RunOptions { obs: Some(Arc::clone(obs)), ..RunOptions::default() };
    let r = JobPlan::resolve(spec)
        .and_then(|plan| runtime_for(spec).run(&plan.generate(spec.seed), &opts))
        .map_err(|e| (e.kind().to_string(), e.to_string()))?;
    if let Some(v) = r.violations.first() {
        return Err(("invariant".to_string(), v.to_string()));
    }
    if let Some(v) = r.liveness_violations.first() {
        return Err(("liveness".to_string(), v.to_string()));
    }
    Ok((r.commits, r.squashes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_finds_the_one_job_and_the_listing_keeps_its_bytes() {
        let table = JobTable::new(1, 0, 16);
        let spec = r#"{"id": "a\"b", "machine": "tm", "app": "cb", "scheme": "lazy", "seed": 7, "runtime": "par"}"#;
        let id = table.submit(JobSpec::parse(spec).unwrap()).unwrap();
        table
            .submit(JobSpec::parse(r#"{"id": "z", "machine": "tls", "app": "gzip", "scheme": "bulk"}"#).unwrap())
            .unwrap();
        let snap = table.get(&id).expect("just submitted");
        assert_eq!((snap.id.as_str(), snap.spec.seed, &snap.state), ("a\"b", 7, &JobState::Queued));
        assert!(table.get("never-submitted").is_none());
        assert_eq!(
            table.list_json(),
            concat!(
                r#"{"job": "a\"b", "state": "queued", "machine": "tm", "scheme": "lazy", "runtime": "par", "seed": 7}, "#,
                r#"{"job": "z", "state": "queued", "machine": "tls", "scheme": "bulk", "runtime": "sim", "seed": 42}"#
            )
        );
    }

    #[test]
    fn fail_queued_is_terminal_for_a_queued_job_and_a_no_op_afterwards() {
        let table = JobTable::new(1, 0, 16);
        let spec = r#"{"id": "j", "machine": "tm", "app": "cb", "scheme": "bulk", "txs": 1}"#;
        let id = table.submit(JobSpec::parse(spec).unwrap()).unwrap();
        table.fail_queued(&id, "spawn-failed", "no thread".to_string());
        let failed =
            JobState::Failed { kind: "spawn-failed".to_string(), detail: "no thread".to_string() };
        assert_eq!(table.state(&id), Some(failed.clone()));
        // A worker that shows up late leaves the typed state alone, and so
        // does a second failure.
        table.run(&id);
        table.fail_queued(&id, "other", String::new());
        assert_eq!(table.state(&id), Some(failed));
    }
}
