//! `serve`: `bulk bulkd` as a child process on ephemeral ports, driven
//! over its wire protocol with raw `std::net` sockets.
//!
//! The load is a closed loop: each of `W` clients sends its next spec only
//! after the previous `done` line, as callers of a job daemon do. Every
//! pass starts a fresh daemon and drains the same job list, so the job
//! table (which the daemon never retires) grows the same way every pass,
//! and the scrape after every 20th completion sees a table whose size is
//! fixed by count, not by time.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bulk_repro::obs::prometheus;
use bulk_repro::sig::crc64;
use bulk_repro::trace::profiles;

use crate::cli_loads::SEED_DELTAS;
use crate::run::{Load, PassCost, RunData};
use crate::span::Tracer;
use crate::spec::{Machine, Spec};
use crate::stats::median;
use crate::sys;

/// Jobs drained per pass.
pub const JOBS_PER_PASS: usize = 60;
/// A scrape follows every this-many completions.
pub const SCRAPE_EVERY: usize = 20;

/// The job list for `seed`: half default-length sim TM, a quarter sim TLS,
/// a quarter on the parallel runtime (TM `lazy`, TLS `bulk`), with apps,
/// schemes and trace seeds cycling in a fixed pattern.
pub fn job_list(seed: u64, n: usize) -> Vec<Spec> {
    let tm = profiles::tm_profiles();
    let tls = profiles::tls_profiles();
    let sim_schemes = ["bulk", "lazy", "eager"];
    (0..n)
        .map(|i| {
            let s = seed ^ SEED_DELTAS[(i / 8) % SEED_DELTAS.len()];
            let sim_scheme = sim_schemes[(i / 4) % sim_schemes.len()];
            let par = |spec| Spec { par: true, ..spec };
            match i % 4 {
                0 | 2 => Spec::sim(
                    Machine::Tm,
                    tm[(i / 2) % tm.len()].name,
                    sim_scheme,
                    s,
                    None,
                ),
                1 => Spec::sim(
                    Machine::Tls,
                    tls[(i / 4) % tls.len()].name,
                    sim_scheme,
                    s,
                    None,
                ),
                _ if (i / 4) % 2 == 0 => par(Spec::sim(
                    Machine::Tm,
                    tm[(i / 8) % tm.len()].name,
                    "lazy",
                    s,
                    None,
                )),
                _ => par(Spec::sim(
                    Machine::Tls,
                    tls[(i / 8) % tls.len()].name,
                    "bulk",
                    s,
                    None,
                )),
            }
        })
        .collect()
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// Ingest socket address.
    pub ingest: String,
    /// HTTP socket address.
    pub http: String,
}

impl Daemon {
    /// Spawns `bulk bulkd` on ephemeral ports and waits until it answers a
    /// ping.
    pub fn start(bulk: &Path, work: &Path, max_jobs: usize) -> std::io::Result<Daemon> {
        let addr_file = work.join("bulkd.addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(bulk)
            .args(["bulkd", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--max-jobs", &max_jobs.to_string()])
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(work.join("bulkd.stderr.txt"))?)
            .spawn()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let (ingest, http) = loop {
            let text = std::fs::read_to_string(&addr_file).unwrap_or_default();
            let mut lines = text.lines();
            if let (Some(a), Some(b), true) = (lines.next(), lines.next(), text.ends_with('\n')) {
                break (a.to_string(), b.to_string());
            }
            if Instant::now() > deadline {
                let mut child = child;
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("bulkd did not publish its addresses"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let daemon = Daemon {
            child,
            ingest,
            http,
        };
        match daemon.control("ping") {
            Ok(reply) if reply.contains("\"ok\": true") => Ok(daemon),
            other => {
                let _ = daemon.stop();
                Err(std::io::Error::other(format!(
                    "bulkd ping failed: {other:?}"
                )))
            }
        }
    }

    /// A `kB` line of the daemon's `/proc` status (`VmHWM`, `VmRSS`).
    pub fn status_kb(&self, key: &str) -> f64 {
        sys::proc_status_kb(Some(self.child.id()), key).unwrap_or(f64::NAN)
    }

    /// Sends one control line and returns the one-line reply.
    pub fn control(&self, cmd: &str) -> std::io::Result<String> {
        let mut stream = TcpStream::connect(&self.ingest)?;
        stream.write_all(format!("{{\"cmd\": \"{cmd}\"}}\n").as_bytes())?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        Ok(line)
    }

    /// Asks the daemon to shut down and reaps it. If it will not listen it
    /// is killed: no child outlives the benchmark.
    pub fn stop(mut self) -> std::io::Result<sys::ChildUsage> {
        if self.control("shutdown").is_err() {
            let _ = self.child.kill();
        }
        sys::reap(self.child)
    }
}

/// What one submission produced.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// Connect → `accepted` line.
    pub accept: Duration,
    /// Connect → `done` line.
    pub total: Duration,
    /// Bytes of every line received.
    pub bytes: usize,
    /// Checksum of the event lines and trailer (everything between
    /// `accepted` and `done`): equal for equal specs.
    pub events_crc: u64,
}

/// Submits one spec and reads its stream to the `done` line, checking it
/// on the way: accepted, zero dropped events, status ok, commits as the
/// trace dictates.
pub fn submit(ingest: &str, job: &Spec) -> Result<Submitted, String> {
    let io = |e: std::io::Error| format!("socket: {e}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(ingest).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .write_all(job.job_line().as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    let accept = start.elapsed();
    if !line.starts_with("{\"accepted\": true") {
        return Err(format!("not accepted: {}", line.trim_end()));
    }
    let mut bytes = line.len();
    let mut events = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            return Err("stream ended before the done line".to_string());
        }
        bytes += line.len();
        if line.starts_with("{\"done\"") {
            break;
        }
        if line.starts_with("{\"trailer\"") && !line.contains("\"dropped\": 0}") {
            return Err(format!("events dropped: {}", line.trim_end()));
        }
        events.extend_from_slice(line.as_bytes());
    }
    let total = start.elapsed();
    if !line.contains("\"status\": \"ok\"") {
        return Err(format!("job failed: {}", line.trim_end()));
    }
    let commits = format!("\"commits\": {}}}", job.commits());
    if !line.trim_end().ends_with(&commits) {
        return Err(format!("expected {commits} in {}", line.trim_end()));
    }
    Ok(Submitted {
        accept,
        total,
        bytes,
        events_crc: crc64(&events),
    })
}

/// `GET path` on the daemon's HTTP socket; returns request→last byte time
/// and the body of a 200 response.
pub fn http_get(http: &str, path: &str) -> Result<(Duration, String), String> {
    let io = |e: std::io::Error| format!("socket: {e}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(http).map_err(io)?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bulkd\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let took = start.elapsed();
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "HTTP status: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    Ok((took, body.to_string()))
}

/// Scrapes `/metrics` and parses the exposition with the program's own
/// parser. Only a `quiescent` scrape (no job running) is also held to the
/// program's validator: while a job runs, the daemon reads a histogram's
/// buckets and its count at different instants, so `+Inf` and `_count`
/// may legitimately differ by the observations made in between.
pub fn scrape(http: &str, quiescent: bool) -> Result<(Duration, usize), String> {
    let (took, body) = http_get(http, "/metrics")?;
    prometheus::parse_exposition(&body).map_err(|e| format!("exposition does not parse: {e}"))?;
    if quiescent {
        prometheus::validate(&body).map_err(|e| format!("exposition invalid: {e}"))?;
    }
    Ok((took, body.len()))
}

/// What `W` clients draining one job list observed.
#[derive(Debug, Default)]
pub struct Drain {
    /// Submit→done of every job, in ms.
    pub job_ms: Vec<f64>,
    /// Request→last byte of every scrape, in ms.
    pub scrape_ms: Vec<f64>,
    /// Commits of jobs that passed their checks.
    pub commits: u64,
    /// One message per failed job or scrape.
    pub failures: Vec<String>,
    /// First and last instant a client was busy.
    pub wall: Duration,
}

/// Drains `jobs` with `clients` closed-loop client threads. With
/// `scrape_every` nonzero, the client that completes every that-many-th
/// job scrapes `/metrics` before taking its next job. One validated scrape
/// follows the last job. `seen` maps spec → event checksum across passes.
pub fn drain(
    daemon: &Daemon,
    jobs: &[Spec],
    clients: usize,
    scrape_every: usize,
    seen: &Mutex<BTreeMap<String, u64>>,
    tracer: &mut Tracer,
) -> Drain {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let out = Mutex::new(Drain::default());
    let (enabled, epoch) = (tracer.enabled(), tracer.epoch());
    let start = Instant::now();
    let tracers: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tracer::new(enabled, epoch);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let result = t.span("bulkd", "submit", |_| submit(&daemon.ingest, job));
                        let mut o = out.lock().expect("a client panicked");
                        match result {
                            Ok(s) => {
                                o.job_ms.push(s.total.as_secs_f64() * 1e3);
                                let mut seen = seen.lock().expect("a client panicked");
                                let first = *seen.entry(job.label()).or_insert(s.events_crc);
                                if first == s.events_crc {
                                    o.commits += job.commits();
                                } else {
                                    o.failures.push(format!(
                                        "events differ between runs of {}",
                                        job.label()
                                    ));
                                }
                            }
                            Err(why) => o.failures.push(format!("{}: {why}", job.label())),
                        }
                        drop(o);
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if scrape_every > 0 && done.is_multiple_of(scrape_every) {
                            let result = t.span("bulkd", "scrape", |_| scrape(&daemon.http, false));
                            let mut o = out.lock().expect("a client panicked");
                            match result {
                                Ok((took, _)) => o.scrape_ms.push(took.as_secs_f64() * 1e3),
                                Err(why) => o.failures.push(format!("scrape: {why}")),
                            }
                        }
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client panicked"))
            .collect()
    });
    for t in tracers {
        tracer.merge(t);
    }
    let mut out = out.into_inner().expect("a client panicked");
    out.wall = start.elapsed();
    // Every job is done: this scrape must also pass the validator.
    if let Err(why) = scrape(&daemon.http, true) {
        out.failures.push(format!("final scrape: {why}"));
    }
    out
}

/// The `serve` workload.
pub struct ServeLoad {
    bulk: PathBuf,
    work: PathBuf,
    seed: u64,
    jobs: Vec<Spec>,
    seen: Mutex<BTreeMap<String, u64>>,
    scrape_ms: Vec<f64>,
}

impl ServeLoad {
    /// A load whose job list derives from `seed`.
    pub fn new(bulk: &Path, work: &Path, seed: u64) -> Self {
        ServeLoad {
            bulk: bulk.to_path_buf(),
            work: work.to_path_buf(),
            seed,
            jobs: Vec::new(),
            seen: Mutex::new(BTreeMap::new()),
            scrape_ms: Vec::new(),
        }
    }

    /// One daemon lifetime: start, drain `jobs`, stop.
    fn serve(&self, jobs: &[Spec], data: &mut RunData, tracer: &mut Tracer) -> (PassCost, Drain) {
        let mut cost = PassCost::default();
        data.attempted += (jobs.len() + jobs.len() / SCRAPE_EVERY + 1) as u64;
        let daemon = match Daemon::start(&self.bulk, &self.work, sys::workers()) {
            Ok(d) => d,
            Err(e) => {
                for _ in 0..jobs.len() {
                    data.fail(format!("bulkd did not start: {e}"));
                }
                // Keep rates finite; every job of the pass already failed.
                cost.wall_s = f64::MIN_POSITIVE;
                return (cost, Drain::default());
            }
        };
        let mut drained = drain(
            &daemon,
            jobs,
            sys::workers(),
            SCRAPE_EVERY,
            &self.seen,
            tracer,
        );
        // VmHWM rather than wait4's figure, which exec carries over from
        // this process.
        data.peak_rss_mb = data.peak_rss_mb.max(daemon.status_kb("VmHWM") / 1024.0);
        match daemon.stop() {
            Ok(usage) => {
                cost.cpu_s = usage.cpu.as_secs_f64();
                if usage.exit_code != Some(0) {
                    drained
                        .failures
                        .push(format!("bulkd exit status {:?}", usage.exit_code));
                }
            }
            Err(e) => drained
                .failures
                .push(format!("bulkd could not be reaped: {e}")),
        }
        for why in drained.failures.drain(..) {
            data.fail(why);
        }
        data.op_ms.extend(&drained.job_ms);
        cost.wall_s = drained.wall.as_secs_f64();
        cost.commits = drained.commits;
        (cost, drained)
    }
}

impl Load for ServeLoad {
    fn ops_per_pass(&self) -> usize {
        JOBS_PER_PASS
    }

    /// Three passes guarantee 180 jobs, which support p90. (Four would
    /// support p95, whose spread between runs of the same code was 11–19 %:
    /// the top twentieth is the parallel-runtime jobs' scheduling luck.)
    fn min_passes(&self) -> usize {
        3
    }

    /// Daemon up and answering, one warm-up job per kind per client, daemon
    /// down again.
    fn setup(&mut self, data: &mut RunData, tracer: &mut Tracer) {
        self.jobs = job_list(self.seed, JOBS_PER_PASS);
        let warm = self.jobs[..8 * sys::workers()].to_vec();
        self.serve(&warm, data, tracer);
    }

    fn pass(&mut self, _k: usize, data: &mut RunData, tracer: &mut Tracer) -> PassCost {
        let (cost, drained) = self.serve(&self.jobs, data, tracer);
        self.scrape_ms.extend(&drained.scrape_ms);
        data.notes = vec![
            (
                "jobs_per_s".to_string(),
                JOBS_PER_PASS as f64 / cost.wall_s,
                "1/s",
            ),
            ("scrape_p50_ms".to_string(), median(&self.scrape_ms), "ms"),
        ];
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulk_repro::trace::jobspec::{JobRuntime, JobSpec, Machine};

    #[test]
    fn job_list_is_a_function_of_the_seed_with_the_stated_mix() {
        let a = job_list(42, 800);
        assert_eq!(a, job_list(42, 800));
        assert_ne!(a, job_list(43, 800));
        assert_eq!(
            &a[..120],
            &job_list(42, 120)[..],
            "a prefix of the longer list"
        );
        let specs: Vec<JobSpec> = a
            .iter()
            .map(|j| JobSpec::parse(&j.job_line()).expect("the daemon's parser accepts it"))
            .collect();
        let sim_tm = specs
            .iter()
            .filter(|s| s.machine == Machine::Tm && s.runtime == JobRuntime::Sim);
        let sim_tls = specs
            .iter()
            .filter(|s| s.machine == Machine::Tls && s.runtime == JobRuntime::Sim);
        let par: Vec<_> = specs
            .iter()
            .filter(|s| s.runtime == JobRuntime::Par)
            .collect();
        assert_eq!(
            (sim_tm.count(), sim_tls.count(), par.len()),
            (400, 200, 200)
        );
        assert!(par.iter().all(|s| match s.machine {
            Machine::Tm => s.scheme == "lazy",
            Machine::Tls => s.scheme == "bulk",
        }));
        // Specs repeat within the list, so byte-identical streams are checked.
        let mut unique: Vec<_> = a.iter().map(Spec::label).collect();
        unique.sort();
        unique.dedup();
        assert!(unique.len() < a.len());
    }
}
