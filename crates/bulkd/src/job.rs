//! The daemon's job table: submission, bounded-concurrency execution,
//! per-job observability and wall-clock reaping.
//!
//! Every job owns its own [`Obs`] bundle, so concurrent runs never share
//! counters and a scrape can label each job's metrics independently. A
//! worker thread executes the run; the connection handler streams the
//! job's event JSONL from the bundle [`JobTable::get`] hands it, between
//! waits in [`JobTable::wait_end`] that the job's end cuts short; the
//! daemon's supervisor calls [`JobTable::reap_stalled`] so a hung run becomes a
//! typed `job-timeout` failure instead of a wedged daemon. The table also
//! holds the daemon's own registry and counts each job's submission and
//! end in it, where the job's state changes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bulk_live::{LivenessKind, LivenessViolation};
use bulk_obs::{json_escape, Obs, Registry};
use bulk_par::{runtime_for, JobPlan, RunOptions};
use bulk_trace::jobspec::JobSpec;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// Executing on a worker thread; holds one of the `max_jobs` slots.
    Running,
    /// Finished cleanly.
    Done {
        /// Committed transactions/tasks.
        commits: u64,
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
    /// When a `Running` job's wall-clock budget runs out; `None` for a
    /// job with no budget. The supervisor compares it with the clock.
    deadline: Option<Instant>,
    /// When the job reached its terminal state; `None` until it does.
    ended: Option<Instant>,
}

/// The slots taken: the `Running` entries.
fn running(jobs: &BTreeMap<String, JobEntry>) -> usize {
    jobs.values().filter(|e| e.state == JobState::Running).count()
}

/// The daemon's shared job registry with a bounded worker pool. A worker
/// slot is a `Running` entry: a job takes one by moving to `Running` and
/// gives it back by leaving it, both under the one `jobs` lock.
pub struct JobTable {
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    /// The daemon-level metrics, exposed unlabelled on `/metrics` beside
    /// the labelled per-job scopes: the job counts kept here, plus the
    /// daemon's connection and scrape counts.
    pub(crate) registry: Registry,
    /// Signalled at every end, in [`JobTable::end`]: an end that leaves
    /// `Running` frees a slot for the workers of queued jobs, and every
    /// end lets its streamer write the `done` line. All waiters wake: a
    /// worker whose job was cancelled takes no slot, so waking only it
    /// could strand the next queued job.
    job_ended: Condvar,
    next_id: AtomicU64,
    max_jobs: usize,
    default_timeout_ms: u64,
}

impl JobTable {
    /// A table running at most `max_jobs` jobs concurrently. Jobs whose
    /// spec has no `timeout_ms` get `default_timeout_ms` (0 disables the
    /// reaper).
    pub fn new(max_jobs: usize, default_timeout_ms: u64) -> Self {
        JobTable {
            jobs: Mutex::new(BTreeMap::new()),
            registry: Registry::new(),
            job_ended: Condvar::new(),
            next_id: AtomicU64::new(1),
            max_jobs: max_jobs.max(1),
            default_timeout_ms,
        }
    }

    /// Moves a job to the terminal `state`, stamps and counts its end,
    /// and wakes every waiter on the table: every end passes here, so
    /// each is counted once, whether or not a client is left to read its
    /// `done` line, and no end can leave a slot waiter or a streamer
    /// asleep.
    fn end(&self, e: &mut JobEntry, state: JobState) {
        let name = match state {
            JobState::Done { .. } => "bulkd.jobs_completed",
            _ => "bulkd.jobs_failed",
        };
        self.registry.counter(name).inc();
        e.state = state;
        e.ended = Some(Instant::now());
        self.job_ended.notify_all();
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
                obs: Arc::new(Obs::new()),
                deadline: None,
                ended: None,
            },
        );
        self.registry.counter("bulkd.jobs_submitted").inc();
        Ok(id)
    }

    /// Executes job `id` to completion on the calling thread (the worker
    /// entry point): waits for a pool slot, runs, records the terminal
    /// state. A job failed by the reaper or by shutdown while it ran keeps
    /// the state written there, and its result is discarded; one failed
    /// while queued never runs. A panic in the run fails the job as
    /// `worker-panicked`.
    pub fn run(&self, id: &str) {
        let (spec, obs) = {
            let jobs = self.jobs.lock().expect("job table poisoned");
            let mut jobs = self
                .job_ended
                .wait_while(jobs, |jobs| {
                    jobs.get(id).is_some_and(|e| e.state == JobState::Queued)
                        && running(jobs) >= self.max_jobs
                })
                .expect("job table poisoned");
            // Gone, or failed (shutdown) while queued: no slot to take.
            let Some(e) = jobs.get_mut(id).filter(|e| e.state == JobState::Queued) else {
                return;
            };
            // The budget starts with the slot: queue wait does not burn it.
            let timeout_ms = e.spec.timeout_ms.unwrap_or(self.default_timeout_ms);
            e.state = JobState::Running;
            e.deadline = Some(timeout_ms)
                .filter(|&ms| ms > 0)
                .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
            (e.spec.clone(), Arc::clone(&e.obs))
        };
        let outcome = contain(|| execute(&spec, &obs));
        obs.publish_stream_stats();
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        // The reaper or shutdown may have failed the job while we ran;
        // that typed state wins, the slot went back with it, and the late
        // result is discarded.
        if let Some(e) = jobs.get_mut(id).filter(|e| e.state == JobState::Running) {
            let state = match outcome {
                Ok(commits) => JobState::Done { commits },
                Err((kind, detail)) => JobState::Failed { kind, detail },
            };
            self.end(e, state);
        }
    }

    /// Fails a job that will never get a worker, so whoever streams it
    /// reads a typed `done` line instead of polling `queued` for the life
    /// of the daemon. A job that already left `Queued` is left alone.
    pub fn fail_queued(&self, id: &str, kind: &str, detail: String) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        if let Some(e) = jobs.get_mut(id).filter(|e| e.state == JobState::Queued) {
            self.end(e, JobState::Failed { kind: kind.to_string(), detail });
        }
    }

    /// Fails every `Running` job past its deadline, constructing the
    /// typed [`LivenessKind::JobTimeout`] violation, hands its slot back
    /// and counts the reap. The worker thread may still be wedged — it is
    /// abandoned and the daemon carries on.
    pub fn reap_stalled(&self) {
        let now = Instant::now();
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let mut reaped = 0;
        for (id, e) in jobs.iter_mut() {
            let overdue = e.state == JobState::Running && e.deadline.is_some_and(|d| d < now);
            if !overdue {
                continue;
            }
            let timeout_ms = e.spec.timeout_ms.unwrap_or(self.default_timeout_ms);
            let violation = LivenessViolation {
                kind: LivenessKind::JobTimeout,
                scheme: format!("{}/{}", e.spec.machine.as_str(), e.spec.scheme),
                thread: None,
                cycle: 0,
                seed: Some(e.spec.seed),
                detail: format!("job `{id}` exceeded its {timeout_ms} ms wall-clock budget"),
            };
            let kind = LivenessKind::JobTimeout.as_str().to_string();
            self.end(e, JobState::Failed { kind, detail: violation.to_string() });
            reaped += 1;
        }
        if reaped > 0 {
            self.registry.counter("bulkd.jobs_reaped").add(reaped);
        }
    }

    /// Fails every non-terminal job (graceful shutdown). A queued job never
    /// starts; a running one is not interrupted — its worker runs to the
    /// end, which `DaemonHandle::wait` waits for, and `run` discards the
    /// result because the state is no longer `Running`.
    pub fn cancel_all(&self) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        for e in jobs.values_mut() {
            if e.state.is_terminal() {
                continue;
            }
            let detail = "daemon shut down before the job finished".to_string();
            self.end(e, JobState::Failed { kind: "shutdown".to_string(), detail });
        }
    }

    /// Waits until job `id` has ended or `timeout` has passed, and
    /// returns its state then, with the instant it ended (`None` while it
    /// has not); `None` if the job does not exist. A wake for another
    /// job's end does not end the wait early.
    pub fn wait_end(&self, id: &str, timeout: Duration) -> Option<(JobState, Option<Instant>)> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        let pending = |jobs: &mut BTreeMap<String, JobEntry>| {
            jobs.get(id).is_some_and(|e| e.ended.is_none())
        };
        let (jobs, _) = self
            .job_ended
            .wait_timeout_while(jobs, timeout, pending)
            .expect("job table poisoned");
        jobs.get(id).map(|e| (e.state.clone(), e.ended))
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
}

/// Runs the spec to completion through the front door, recording into
/// `obs`. Returns the commit count or a `(kind, detail)` failure —
/// classified here once, so a `done` line's `"kind"` cannot differ by
/// substrate for the same failure. A job arms no watchdog, so a stall
/// reaches here only as a par run's `RuntimeError::Liveness`.
fn execute(spec: &JobSpec, obs: &Arc<Obs>) -> Result<u64, (String, String)> {
    let opts = RunOptions { obs: Some(Arc::clone(obs)), ..RunOptions::default() };
    let r = JobPlan::resolve(spec)
        .and_then(|plan| runtime_for(spec).run(&plan.generate(spec.seed), &opts))
        .map_err(|e| (e.kind().to_string(), e.to_string()))?;
    if let Some(v) = r.violations.first() {
        return Err(("invariant".to_string(), v.to_string()));
    }
    Ok(r.commits)
}

/// Runs a job body, turning a panic in it into the job's typed
/// `worker-panicked` failure, so the client's `done` line reports it and
/// the worker still releases its slot.
fn contain(body: impl FnOnce() -> Result<u64, (String, String)>) -> Result<u64, (String, String)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|p| {
        let msg = match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
            (Some(s), _) => s.to_string(),
            (None, Some(s)) => s.clone(),
            (None, None) => "non-string panic payload".to_string(),
        };
        Err(("worker-panicked".to_string(), format!("job worker panicked: {msg}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_body_is_a_typed_failure() {
        assert_eq!(contain(|| Ok(3)), Ok(3));
        let failed = contain(|| panic!("boom {}", 7));
        assert_eq!(
            failed,
            Err(("worker-panicked".to_string(), "job worker panicked: boom 7".to_string()))
        );
    }

    #[test]
    fn get_finds_the_one_job_and_the_listing_keeps_its_bytes() {
        let table = JobTable::new(1, 0);
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
        let table = JobTable::new(1, 0);
        let spec = r#"{"id": "j", "machine": "tm", "app": "cb", "scheme": "bulk", "txs": 1}"#;
        let id = table.submit(JobSpec::parse(spec).unwrap()).unwrap();
        table.fail_queued(&id, "spawn-failed", "no thread".to_string());
        let failed =
            JobState::Failed { kind: "spawn-failed".to_string(), detail: "no thread".to_string() };
        let state = |table: &JobTable| table.wait_end(&id, Duration::ZERO).map(|(s, _)| s);
        assert_eq!(state(&table), Some(failed.clone()));
        // A worker that shows up late leaves the typed state alone, and so
        // does a second failure.
        table.run(&id);
        table.fail_queued(&id, "other", String::new());
        assert_eq!(state(&table), Some(failed));
        // Its one end is counted once.
        assert_eq!(table.registry.counter_value("bulkd.jobs_failed"), 1);
        assert_eq!(table.registry.counter_value("bulkd.jobs_completed"), 0);
    }

    /// A one-transaction job `j` in a fresh one-slot table.
    fn one_job(default_timeout_ms: u64) -> JobTable {
        let table = JobTable::new(1, default_timeout_ms);
        let spec = r#"{"id": "j", "machine": "tm", "app": "cb", "scheme": "bulk", "txs": 1}"#;
        table.submit(JobSpec::parse(spec).unwrap()).unwrap();
        table
    }

    /// A thread blocked in `wait_end(j, 10 s)` returns `j`'s terminal
    /// state, of kind `kind`, within a second of the end `end` makes. The
    /// waiter gets a 50 ms head start, so it is asleep in the wait when
    /// the end comes: an end that did not wake it would hold it 10 s.
    fn an_end_wakes_the_waiter(table: &JobTable, kind: &str, end: impl FnOnce()) {
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let got = table.wait_end("j", Duration::from_secs(10));
                (got, Instant::now())
            });
            std::thread::sleep(Duration::from_millis(50));
            end();
            let (got, woke) = waiter.join().unwrap();
            let (state, ended) = got.expect("the job exists");
            let ended = ended.expect("a returned end carries its instant");
            assert_eq!(state.as_str(), kind, "{state:?}");
            assert!(woke.duration_since(ended) < Duration::from_secs(1), "woke late: {state:?}");
        });
    }

    #[test]
    fn a_workers_result_wakes_the_waiter() {
        let table = one_job(0);
        an_end_wakes_the_waiter(&table, "done", || table.run("j"));
    }

    #[test]
    fn a_reap_wakes_the_waiter() {
        let table = one_job(1);
        {
            // Running past its deadline, as a wedged worker leaves it.
            let mut jobs = table.jobs.lock().unwrap();
            let e = jobs.get_mut("j").unwrap();
            e.state = JobState::Running;
            e.deadline = Some(Instant::now());
        }
        an_end_wakes_the_waiter(&table, "failed", || table.reap_stalled());
    }

    #[test]
    fn cancel_all_wakes_the_waiter() {
        let table = one_job(0);
        an_end_wakes_the_waiter(&table, "failed", || table.cancel_all());
    }

    #[test]
    fn fail_queued_wakes_the_waiter() {
        let table = one_job(0);
        an_end_wakes_the_waiter(&table, "failed", || {
            table.fail_queued("j", "spawn-failed", "no thread".to_string());
        });
    }

    #[test]
    fn a_wait_with_no_end_times_out_and_an_unknown_job_is_none() {
        let table = one_job(0);
        let start = Instant::now();
        assert_eq!(table.wait_end("j", Duration::from_millis(30)), Some((JobState::Queued, None)));
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(table.wait_end("never-submitted", Duration::from_secs(10)), None);
    }
}
