//! End-to-end daemon tests: concurrent mixed-runtime jobs, streaming
//! determinism, a parse-checked Prometheus scrape under load, the
//! hung-job watchdog, a shutdown that waits for the jobs in flight, and
//! clients that send nothing, never stop or hang up.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bulk_obs::{Obs, DEFAULT_EVENT_CAPACITY};
use bulk_par::{runtime_for, JobPlan, RunOptions};
use bulk_trace::jobspec::JobSpec;
use bulkd::client::{self, Submission};
use bulkd::{spawn, DaemonConfig};

fn start(max_jobs: usize, default_timeout_ms: u64) -> Arc<bulkd::DaemonHandle> {
    Arc::new(
        spawn(DaemonConfig {
            max_jobs,
            default_timeout_ms,
            ..DaemonConfig::default()
        })
        .expect("daemon must bind loopback"),
    )
}

fn submit(handle: &bulkd::DaemonHandle, spec: &str) -> Submission {
    client::submit_spec(&handle.ingest_addr().to_string(), spec).expect("submit I/O")
}

/// Polls `cond` until it holds; the daemon's state is only visible through
/// its sockets, so there is nothing to block on.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        thread::sleep(Duration::from_millis(20));
    }
}

/// The `state` the daemon's `status` listing reports for `job`.
fn job_state(handle: &bulkd::DaemonHandle, job: &str) -> Option<String> {
    let status = client::control(&handle.ingest_addr().to_string(), "status").expect("status");
    let entry = &status[status.find(&format!("\"job\": \"{job}\""))?..];
    client::extract_str_field(entry, "state")
}

/// One series of a sim TM Bulk job, from a live scrape; 0 before it exists.
fn tm_bulk_job_metric(handle: &bulkd::DaemonHandle, job: &str, name: &str) -> f64 {
    let body = client::scrape(&handle.http_addr().to_string()).expect("scrape");
    let parsed = bulk_obs::prometheus::parse_exposition(&body).expect("parse");
    let labels = [("job", job), ("machine", "tm"), ("scheme", "bulk"), ("runtime", "sim")];
    parsed.value(name, &labels).unwrap_or(0.0)
}

#[test]
fn concurrent_mixed_jobs_stream_jsonl_and_scrape_is_well_formed() {
    let handle = start(8, 30_000);
    // Three concurrent jobs, mixed machines and runtimes, as the
    // acceptance criteria demand: TM sim, TLS sim, TM on real threads.
    let specs = [
        r#"{"id": "tm-sim", "machine": "tm", "app": "cb", "scheme": "bulk", "seed": 7}"#,
        r#"{"id": "tls-sim", "machine": "tls", "app": "bzip2", "scheme": "bulk", "seed": 9}"#,
        r#"{"id": "tm-par", "machine": "tm", "app": "cb", "scheme": "lazy", "seed": 11, "runtime": "par"}"#,
    ];
    let mut joins = Vec::new();
    for spec in specs {
        let h = Arc::clone(&handle);
        let spec = spec.to_string();
        joins.push(thread::spawn(move || submit(&h, &spec)));
    }
    // Scrape while the jobs are in flight; the exposition must already
    // be well-formed mid-run.
    let midrun = client::scrape(&handle.http_addr().to_string()).expect("mid-run scrape");
    bulk_obs::prometheus::validate(&midrun).expect("mid-run exposition parses");
    let results: Vec<Submission> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    for (spec, r) in specs.iter().zip(&results) {
        assert!(r.ok(), "spec {spec} failed: {}", r.last());
        assert!(r.job.is_some(), "accepted line must carry the job id");
        assert!(
            r.lines.iter().any(|l| l.starts_with("{\"trailer\"")),
            "stream must end with a trailer accounting line"
        );
    }
    // Sim jobs stream real protocol events; the par runtime reports
    // stats instead (no simulated clock), so only check the sim two.
    for r in &results[..2] {
        assert!(
            r.lines.iter().any(|l| l.contains("\"event\": \"commit_broadcast\"")),
            "sim job streamed no commit events: {:?}",
            r.lines.iter().take(3).collect::<Vec<_>>()
        );
    }

    // The post-run scrape carries per-job labelled series and parses.
    let body = client::scrape(&handle.http_addr().to_string()).expect("scrape");
    let (families, samples) =
        bulk_obs::prometheus::validate(&body).expect("exposition must parse");
    assert!(families >= 3, "expected several metric families, got {families}");
    assert!(samples > 20, "expected a real exposition, got {samples} samples");
    let parsed = bulk_obs::prometheus::parse_exposition(&body).expect("parse");
    let commits = parsed
        .samples
        .iter()
        .filter(|s| s.name == "bulk_tm_commits")
        .collect::<Vec<_>>();
    assert!(
        commits
            .iter()
            .any(|s| s.labels.iter().any(|(k, v)| k == "job" && v == "tm-sim")),
        "per-job `job` label missing from tm commit samples"
    );
    assert!(
        commits
            .iter()
            .all(|s| s.labels.iter().any(|(k, _)| k == "machine")
                && s.labels.iter().any(|(k, _)| k == "scheme")),
        "machine/scheme labels missing"
    );
    // Satellite 6: stream-accounting gauges are exposed per job.
    assert!(
        parsed.samples.iter().any(|s| s.name == "bulk_events_dropped"),
        "events.dropped gauge missing from exposition"
    );
    assert!(
        parsed.samples.iter().any(|s| s.name == "bulk_events_buffer_hwm"),
        "buffer high-water gauge missing from exposition"
    );
    // Daemon self-metrics are present unlabelled.
    assert!(
        parsed.samples.iter().any(|s| s.name == "bulk_bulkd_jobs_submitted"
            && s.labels.is_empty()
            && s.value >= 3.0),
        "daemon job counter missing"
    );
    // Every `done` line streamed observed its lag before it was written.
    assert_eq!(
        parsed.value("bulk_bulkd_done_lag_us_count", &[]),
        Some(results.len() as f64),
        "one done-lag observation per job streamed"
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn same_spec_and_seed_streams_byte_identical_jsonl() {
    let handle = start(4, 30_000);
    let spec_a = r#"{"id": "det-a", "machine": "tm", "app": "moldyn", "scheme": "bulk", "seed": 1234}"#;
    let spec_b = r#"{"id": "det-b", "machine": "tm", "app": "moldyn", "scheme": "bulk", "seed": 1234}"#;
    // Submit concurrently with an unrelated noisy job in between to
    // prove multiplexing cannot bleed into a job's stream.
    let noise = r#"{"id": "noise", "machine": "tls", "app": "mcf", "scheme": "eager", "seed": 5}"#;
    let h2 = Arc::clone(&handle);
    let noise_join = {
        let noise = noise.to_string();
        thread::spawn(move || submit(&h2, &noise))
    };
    let a = submit(&handle, spec_a);
    let b = submit(&handle, spec_b);
    assert!(a.ok() && b.ok(), "{} / {}", a.last(), b.last());
    assert!(noise_join.join().unwrap().ok());
    assert!(
        !a.event_jsonl().is_empty(),
        "determinism check needs a non-empty stream"
    );
    assert_eq!(
        a.event_jsonl(),
        b.event_jsonl(),
        "identical spec+seed must stream byte-identical event JSONL"
    );
    handle.shutdown();
    handle.wait();
}

/// The events of `lines` (a stream or a JSONL artifact), without its
/// trailer: the two trailers count different things.
fn without_trailer(jsonl: &str) -> Vec<&str> {
    jsonl.lines().filter(|l| !l.starts_with("{\"trailer\"")).collect()
}

#[test]
fn the_daemon_stream_equals_the_in_process_event_artifact() {
    // Long enough that the stream spans many 2 ms polls, so lines cross
    // batch edges.
    let spec = r#"{"id": "long", "machine": "tm", "app": "sjbb2k", "scheme": "bulk", "seed": 7, "txs": 600}"#;
    let handle = start(2, 60_000);
    let streamed = submit(&handle, spec);
    assert!(streamed.ok(), "{}", streamed.last());
    handle.shutdown();
    handle.wait();

    let spec = JobSpec::parse(spec).expect("spec parses");
    let obs = Arc::new(Obs::with_event_capacity(DEFAULT_EVENT_CAPACITY));
    let opts = RunOptions { obs: Some(Arc::clone(&obs)), ..RunOptions::default() };
    let plan = JobPlan::resolve(&spec).expect("spec resolves");
    runtime_for(&spec).run(&plan.generate(spec.seed), &opts).expect("in-process run");
    let artifact = obs.events().to_jsonl();
    assert!(artifact.ends_with("\"dropped\": 0}\n"), "the ring must hold the whole run");

    let stream = streamed.event_jsonl();
    let (stream, artifact) = (without_trailer(&stream), without_trailer(&artifact));
    assert!(artifact.len() > 1000, "only {} events: too short to span polls", artifact.len());
    assert_eq!(stream.len(), artifact.len(), "event line counts differ");
    if let Some(i) = (0..stream.len()).find(|&i| stream[i] != artifact[i]) {
        panic!("line {i} differs:\n stream:   {}\n artifact: {}", stream[i], artifact[i]);
    }
}

#[test]
fn hung_job_is_reaped_as_typed_timeout_and_daemon_survives() {
    // One slot: the follow-up job below runs only if the reap gave it back.
    let handle = start(1, 30_000);
    // A real run of 8 × 1500 transactions: about a second of work
    // optimised and ten in a debug build, against a 50 ms budget. The
    // supervisor must fail the job with a typed liveness violation.
    let hung = r#"{"id": "wedge", "machine": "tm", "app": "cb", "scheme": "bulk", "seed": 3, "txs": 1500, "timeout_ms": 50}"#;
    let r = submit(&handle, hung);
    assert!(!r.ok(), "hung job must not complete: {}", r.last());
    assert!(
        r.last().contains("\"kind\": \"job-timeout\""),
        "expected typed job-timeout, got: {}",
        r.last()
    );
    assert!(
        r.last().contains("wall-clock budget"),
        "detail should explain the budget: {}",
        r.last()
    );
    assert!(
        tm_bulk_job_metric(&handle, "wedge", "bulk_tm_commits") < 8.0 * 1500.0,
        "reaper must fire on the timeout, not when the run ends"
    );
    // The daemon is still fully operational afterwards.
    let after = submit(
        &handle,
        r#"{"machine": "tls", "app": "bzip2", "scheme": "lazy", "seed": 2}"#,
    );
    assert!(after.ok(), "daemon wedged after reaping: {}", after.last());
    assert_eq!(
        tm_bulk_job_metric(&handle, "wedge", "bulk_tm_cycles_total"),
        0.0,
        "the slot must come back at the reap, not when the abandoned run ends"
    );
    let body = client::scrape(&handle.http_addr().to_string()).expect("scrape after reap");
    let parsed = bulk_obs::prometheus::parse_exposition(&body).expect("parse");
    assert_eq!(
        parsed.value("bulk_bulkd_jobs_reaped", &[]),
        Some(1.0),
        "reap counter must record the kill"
    );
    // The abandoned worker runs on to the end (the cycle totals are the
    // last thing a run publishes); its late result must not overwrite the
    // typed failure.
    wait_until("the abandoned run ends", || {
        tm_bulk_job_metric(&handle, "wedge", "bulk_tm_cycles_total") > 0.0
    });
    thread::sleep(Duration::from_millis(100));
    assert_eq!(job_state(&handle, "wedge").as_deref(), Some("failed"));
    handle.shutdown();
    handle.wait();
}

#[test]
fn a_job_whose_client_hangs_up_unread_still_reaches_a_terminal_state() {
    let handle = start(2, 30_000);
    {
        let mut gone = TcpStream::connect(handle.ingest_addr()).expect("connect");
        gone.write_all(b"{\"id\": \"orphan\", \"machine\": \"tm\", \"app\": \"cb\", \"scheme\": \"bulk\"}\n")
            .expect("send");
        // Dropped without reading a byte: whichever reply the daemon fails
        // to write, the job it registered must not stay `queued`.
    }
    wait_until("the orphaned job ends", || {
        matches!(job_state(&handle, "orphan").as_deref(), Some("done" | "failed"))
    });
    assert_eq!(job_state(&handle, "orphan").as_deref(), Some("done"));
    // Its end is counted although no done line was written for it.
    let body = client::scrape(&handle.http_addr().to_string()).expect("scrape");
    let parsed = bulk_obs::prometheus::parse_exposition(&body).expect("parse");
    let count = |name| parsed.value(name, &[]).unwrap_or(0.0);
    assert_eq!(count("bulk_bulkd_jobs_completed"), 1.0, "got: {body}");
    assert_eq!(
        count("bulk_bulkd_jobs_submitted"),
        count("bulk_bulkd_jobs_completed") + count("bulk_bulkd_jobs_failed"),
        "every submitted job has ended, so every one is counted: {body}"
    );
    handle.shutdown();
    handle.wait();
}

#[test]
fn control_protocol_and_error_lines_keep_the_connection_usable() {
    let handle = start(2, 30_000);
    let addr = handle.ingest_addr().to_string();
    assert_eq!(client::control(&addr, "ping").unwrap(), "{\"ok\": true}");
    // A malformed spec answers with an error and the daemon stays up.
    let bad = client::submit_spec(&addr, r#"{"machine": "tm"}"#).unwrap();
    assert!(bad.last().starts_with("{\"error\""), "got: {}", bad.last());
    let unknown = client::submit_spec(
        &addr,
        r#"{"machine": "tm", "app": "no-such-app", "scheme": "bulk"}"#,
    )
    .unwrap();
    assert!(unknown.last().contains("unknown TM app"), "got: {}", unknown.last());
    // Duplicate ids are rejected.
    let ok = submit(&handle, r#"{"id": "dup", "machine": "tm", "app": "cb", "scheme": "eager"}"#);
    assert!(ok.ok());
    let dup = submit(&handle, r#"{"id": "dup", "machine": "tm", "app": "cb", "scheme": "eager"}"#);
    assert!(dup.last().contains("already exists"), "got: {}", dup.last());
    // An id is data: quotes and backslashes come back to the client as
    // sent, and a NUL (which no thread can be named after) still runs.
    let quoted = submit(&handle, r#"{"id": "a\"b\\c", "machine": "tm", "app": "cb", "scheme": "eager"}"#);
    assert!(quoted.ok(), "got: {}", quoted.last());
    assert_eq!(quoted.job.as_deref(), Some("a\"b\\c"));
    let nul = submit(&handle, "{\"id\": \"n\\u0000l\", \"machine\": \"tm\", \"app\": \"cb\", \"scheme\": \"eager\"}");
    assert!(nul.ok(), "got: {}", nul.last());
    assert_eq!(nul.job.as_deref(), Some("n\0l"));
    // Status reports every job the daemon has seen.
    let status = client::control(&addr, "status").unwrap();
    assert!(status.contains("\"job\": \"dup\""), "got: {status}");
    assert!(status.contains(r#""job": "a\"b\\c""#), "got: {status}");
    // /jobs and /healthz are served; unknown paths 404.
    let (code, body) = client::http_get(&handle.http_addr().to_string(), "/jobs").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("\"job\": \"dup\""));
    let (code, _) = client::http_get(&handle.http_addr().to_string(), "/healthz").unwrap();
    assert_eq!(code, 200);
    let (code, _) = client::http_get(&handle.http_addr().to_string(), "/nope").unwrap();
    assert_eq!(code, 404);
    handle.shutdown();
    handle.wait();
}

#[test]
fn shutdown_command_fails_queued_jobs_and_stops_the_daemon() {
    let handle = start(1, 30_000);
    let addr = handle.ingest_addr().to_string();
    let resp = client::control(&addr, "shutdown").unwrap();
    assert!(resp.contains("\"shutting_down\": true"), "got: {resp}");
    // The control command alone must stop the daemon: wait() joins every
    // thread, so a stuck accept loop hangs the test harness here.
    handle.wait();
}

#[test]
fn wait_returns_only_after_a_job_running_at_shutdown_has_exited() {
    // A real run of about half a second in a debug build. Shutdown fails
    // it at once, but its worker runs on to the end, and `wait` must join
    // it rather than let the process exit under it: `wait` takes at least
    // a good part of the run, where a detached worker lets it return
    // within about one 100 ms read timeout. Run twice: with the client
    // still connected, and with it gone after `accepted`, when nothing
    // but the daemon's thread scope still holds the worker.
    let spec = r#"{"id": "inflight", "machine": "tm", "app": "cb", "scheme": "bulk", "seed": 3, "txs": 150}"#;
    let solo = {
        let spec = JobSpec::parse(spec).expect("spec parses");
        let job = JobPlan::resolve(&spec).expect("spec resolves").generate(spec.seed);
        let t = Instant::now();
        runtime_for(&spec).run(&job, &RunOptions::default()).expect("in-process run");
        t.elapsed()
    };
    for hang_up in [false, true] {
        let handle = start(1, 30_000);
        let mut conn = TcpStream::connect(handle.ingest_addr()).expect("connect");
        conn.write_all(format!("{spec}\n").as_bytes()).expect("send");
        let mut accepted = Vec::new();
        let mut byte = [0u8];
        while byte[0] != b'\n' {
            conn.read_exact(&mut byte).expect("the daemon answers");
            accepted.push(byte[0]);
        }
        let accepted = String::from_utf8(accepted).expect("utf-8");
        assert!(accepted.starts_with("{\"accepted\": true"), "got: {accepted}");
        if hang_up {
            drop(conn);
        }
        // The worker is spawned before the daemon answers, but it may not
        // have taken its slot yet; a job shut down while queued never runs.
        wait_until("the job runs", || job_state(&handle, "inflight").as_deref() == Some("running"));
        let stopped = Instant::now();
        handle.shutdown();
        handle.wait();
        let waited = stopped.elapsed();
        assert!(
            waited >= solo / 3,
            "hang_up {hang_up}: wait returned {waited:?} after shutdown; the run takes {solo:?}"
        );
    }
}

#[test]
fn an_idle_http_connection_does_not_hold_shutdown_hostage() {
    let handle = start(1, 30_000);
    // Connect to the scrape port and send nothing — a half-open scraper,
    // a port scanner, a browser's speculative connection.
    let idle = TcpStream::connect(handle.http_addr()).expect("connect");
    // Make sure the daemon has accepted it before asking it to stop.
    client::scrape(&handle.http_addr().to_string()).expect("scrape");
    let resp = client::control(&handle.ingest_addr().to_string(), "shutdown").unwrap();
    assert!(resp.contains("\"shutting_down\": true"), "got: {resp}");
    let asked = Instant::now();
    handle.wait();
    assert!(asked.elapsed() < Duration::from_secs(2), "waited {:?}", asked.elapsed());
    drop(idle);
}

#[test]
fn an_over_long_line_is_refused_on_both_sockets_and_the_daemon_keeps_serving() {
    let handle = start(1, 30_000);
    let (ingest, http) = (handle.ingest_addr().to_string(), handle.http_addr().to_string());
    // Exactly the cap with no newline in sight: the daemon stops reading,
    // says why, and closes — it does not buffer a line without end.
    let too_long = vec![b'x'; 64 * 1024];
    let reply_to = |addr: &str| {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&too_long).expect("send");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("the daemon answers, then closes");
        reply
    };
    assert_eq!(reply_to(&ingest), "{\"error\": \"line exceeds 65536 bytes\"}\n");
    let reply = reply_to(&http);
    assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "got: {reply}");
    assert!(reply.ends_with("line exceeds 65536 bytes\n"), "got: {reply}");
    // A client that keeps pouring bytes in is dropped all the same (it may
    // see a reset instead of the reply; either way the daemon moves on).
    for addr in [&ingest, &http] {
        let mut s = TcpStream::connect(addr.as_str()).expect("connect");
        let _ = (0..32).try_for_each(|_| s.write_all(&too_long));
    }
    assert_eq!(client::control(&ingest, "ping").unwrap(), "{\"ok\": true}");
    let ok = submit(&handle, r#"{"machine": "tm", "app": "cb", "scheme": "eager"}"#);
    assert!(ok.ok(), "got: {}", ok.last());
    bulk_obs::prometheus::validate(&client::scrape(&http).expect("scrape")).expect("parses");
    handle.shutdown();
    handle.wait();
}
