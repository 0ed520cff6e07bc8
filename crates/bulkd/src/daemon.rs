//! The daemon itself: TCP ingest of line-delimited job specs, per-job
//! JSONL event streaming, a supervisor that reaps stalled runs, and
//! graceful shutdown.
//!
//! Wire protocol (ingest socket, one JSON object per line):
//!
//! - a job spec (`{"machine": "tm", "app": "counter-hot", ...}`) is
//!   answered with an `{"accepted": ...}` line, then the run's event
//!   JSONL streamed live, a `{"trailer": ...}` accounting line, and one
//!   `{"done": ...}` line with the outcome;
//! - a control line (`{"cmd": "ping"|"status"|"shutdown"}`) is answered
//!   with a single JSON line;
//! - a malformed line is answered with `{"error": "..."}` and the
//!   connection stays usable.
//!
//! Jobs from different connections run concurrently (bounded by the
//! worker-slot pool); one connection processes its lines in order.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Scope};
use std::time::Duration;

use bulk_obs::{json_escape, Histogram};
use bulk_trace::jobspec::{FlatValue, JobSpec};

use crate::job::{JobState, JobTable};

/// How the daemon listens and bounds its work.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Ingest address (`host:port`; port 0 picks a free port).
    pub listen: String,
    /// HTTP `/metrics` address (`host:port`; port 0 picks a free port).
    pub http: String,
    /// Maximum concurrently-running jobs; later jobs queue.
    pub max_jobs: usize,
    /// Wall-clock budget (ms) for jobs whose spec names none; 0 disables
    /// the reaper.
    pub default_timeout_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            http: "127.0.0.1:0".to_string(),
            max_jobs: 8,
            default_timeout_ms: 30_000,
        }
    }
}

/// State shared by every daemon thread.
pub(crate) struct Shared {
    pub(crate) table: JobTable,
    pub(crate) shutdown: AtomicBool,
    /// Bound listener addresses: the handle reports them, and
    /// `begin_shutdown` pokes the accept loops awake through them from
    /// any thread (including a connection handler serving
    /// `{"cmd": "shutdown"}`).
    ingest_addr: std::net::SocketAddr,
    http_addr: std::net::SocketAddr,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Sets the shutdown flag, fails every non-terminal job, and wakes
    /// both accept loops (they block in `accept`; a throwaway connection
    /// lets them observe the flag and exit). Idempotent.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.table.cancel_all();
        let _ = TcpStream::connect(self.ingest_addr);
        let _ = TcpStream::connect(self.http_addr);
    }
}

/// A running daemon: bound addresses plus shutdown/join handles.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    /// The ingest and HTTP accept loops and the supervisor.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl DaemonHandle {
    /// The bound ingest address (job submission socket).
    pub fn ingest_addr(&self) -> std::net::SocketAddr {
        self.shared.ingest_addr
    }

    /// The bound HTTP address (`GET /metrics`).
    pub fn http_addr(&self) -> std::net::SocketAddr {
        self.shared.http_addr
    }

    /// Initiates graceful shutdown: fails every non-terminal job and
    /// wakes the accept loops. Idempotent; does not block.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until every daemon thread (accept loops, supervisor,
    /// connection handlers, job workers) has exited. Call
    /// [`DaemonHandle::shutdown`] first, or this waits forever. A job
    /// running at shutdown is failed at once but runs to its end, and
    /// this waits for it: its worker lives in the ingest accept loop's
    /// scope, which that loop's thread leaves only once every handler
    /// and worker started in it has exited. A second call blocks until
    /// the first returns.
    pub fn wait(&self) {
        let mut threads = self.threads.lock().expect("thread list poisoned");
        for h in threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Binds both listeners, starts the accept loops and the stall
/// supervisor, and returns immediately.
///
/// # Errors
///
/// Returns the bind error if either address is unusable.
pub fn spawn(cfg: DaemonConfig) -> io::Result<DaemonHandle> {
    let ingest = TcpListener::bind(&cfg.listen)?;
    let http = TcpListener::bind(&cfg.http)?;
    let shared = Arc::new(Shared {
        table: JobTable::new(cfg.max_jobs, cfg.default_timeout_ms),
        shutdown: AtomicBool::new(false),
        ingest_addr: ingest.local_addr()?,
        http_addr: http.local_addr()?,
    });

    // One handler thread per connection on either socket; scrapes are
    // short-lived, ingest connections live as long as their client.
    let ingest = accept_loop(ingest, "bulkd-ingest", "bulkd-conn", &shared, handle_ingest)?;
    let http = accept_loop(http, "bulkd-http", "bulkd-scrape", &shared, crate::http::handle)?;
    // Supervisor: turns hung runs into typed `job-timeout` failures so
    // one wedged worker can never wedge the daemon.
    let reaper = thread::Builder::new().name("bulkd-reaper".into()).spawn({
        let shared = Arc::clone(&shared);
        move || {
            while !shared.shutting_down() {
                shared.table.reap_stalled();
                thread::sleep(Duration::from_millis(20));
            }
        }
    })?;

    Ok(DaemonHandle { shared, threads: Mutex::new(vec![ingest, http, reaper]) })
}

/// Accepts connections on `listener` until shutdown, one `handler` thread
/// each, in a scope the loop's thread opens and hands to each handler:
/// it returns only once every thread started in that scope, handlers
/// and the job workers they started, has exited.
fn accept_loop(
    listener: TcpListener,
    name: &'static str,
    conn_name: &'static str,
    shared: &Arc<Shared>,
    handler: for<'s, 'e> fn(TcpStream, &'s Shared, &'s Scope<'s, 'e>),
) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    thread::Builder::new().name(name.into()).spawn(move || {
        let shared = &*shared;
        thread::scope(|scope| {
            for stream in listener.incoming() {
                if shared.shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn = thread::Builder::new().name(conn_name.into());
                let _ = conn.spawn_scoped(scope, move || handler(stream, shared, scope));
            }
        });
    })
}

/// One ingest connection: reads JSON lines, answers each in order.
fn handle_ingest<'s>(stream: TcpStream, shared: &'s Shared, scope: &'s Scope<'s, '_>) {
    shared.table.registry.counter("bulkd.connections").add(1);
    let Some((mut reader, mut writer)) = split(stream) else { return };
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line_interruptible(&mut reader, &mut line, shared) {
            ReadOutcome::Line => {}
            ReadOutcome::TooLong => {
                let _ = write_line(&mut writer, &format!("{{\"error\": \"{}\"}}", line_too_long()));
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Shutdown => break,
        }
        // Bytes that are not UTF-8 fail the parse below like any other
        // malformed line.
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response_ended = handle_line(trimmed, &mut writer, shared, scope);
        if response_ended {
            break;
        }
    }
}

/// A connection as a line reader plus a writer. The short read timeout
/// lets [`read_line_interruptible`] notice shutdown while the client is
/// idle, so `wait()` never hangs on an open connection.
pub(crate) fn split(stream: TcpStream) -> Option<(BufReader<TcpStream>, TcpStream)> {
    stream.set_read_timeout(Some(Duration::from_millis(100))).ok()?;
    Some((BufReader::new(stream.try_clone().ok()?), stream))
}

/// Longest line either socket accepts, newline included.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// What a client that sends a longer one is told before it is dropped.
pub(crate) fn line_too_long() -> String {
    format!("line exceeds {MAX_LINE_BYTES} bytes")
}

pub(crate) enum ReadOutcome {
    Line,
    /// [`MAX_LINE_BYTES`] arrived without a newline; the connection
    /// cannot be resynchronised and must be closed.
    TooLong,
    Eof,
    Shutdown,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`, returning
/// [`ReadOutcome::Shutdown`] instead of blocking forever once the daemon
/// is stopping. The one reader of both sockets.
pub(crate) fn read_line_interruptible(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    shared: &Shared,
) -> ReadOutcome {
    loop {
        let room = (MAX_LINE_BYTES - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', line) {
            Ok(_) if line.ends_with(b"\n") => return ReadOutcome::Line,
            Ok(_) if line.len() >= MAX_LINE_BYTES => return ReadOutcome::TooLong,
            // End of stream; a partial last line is dropped.
            Ok(_) => return ReadOutcome::Eof,
            // Read timeout (possibly mid-line: `line` keeps what arrived).
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return ReadOutcome::Shutdown;
                }
            }
            Err(_) => return ReadOutcome::Eof,
        }
    }
}

/// Dispatches one line; returns `true` when the connection should close
/// (shutdown command or write failure).
fn handle_line<'s>(
    line: &str,
    writer: &mut TcpStream,
    shared: &'s Shared,
    scope: &'s Scope<'s, '_>,
) -> bool {
    // Control lines are flat objects with a `cmd` key; everything else
    // is treated as a job spec.
    if let Ok(pairs) = bulk_trace::jobspec::parse_flat_object(line) {
        if let Some((_, FlatValue::Str(cmd))) = pairs.iter().find(|(k, _)| k == "cmd") {
            return handle_control(cmd, writer, shared);
        }
    }
    let spec = match JobSpec::parse(line) {
        Ok(s) => s,
        Err(e) => {
            return write_line(writer, &format!("{{\"error\": \"{}\"}}", json_escape(&e.to_string())));
        }
    };
    if shared.shutting_down() {
        return write_line(writer, "{\"error\": \"daemon is shutting down\"}");
    }
    let echo = spec.to_json_line();
    let id = match shared.table.submit(spec) {
        Ok(id) => id,
        Err(e) => {
            return write_line(writer, &format!("{{\"error\": \"{}\"}}", json_escape(&e)));
        }
    };
    // The worker starts before the client hears `accepted`: a client gone
    // by then ends this handler, and the job must not be left registered
    // with nobody to run it. The handler streams events while it runs.
    let worker = thread::Builder::new().name("bulkd-job".into()).spawn_scoped(scope, {
        let id = id.clone();
        move || shared.table.run(&id)
    });
    if let Err(e) = worker {
        let detail = format!("no worker thread for job `{id}`: {e}");
        shared.table.fail_queued(&id, "spawn-failed", detail);
    }
    if write_line(
        writer,
        &format!("{{\"accepted\": true, \"job\": \"{}\", \"spec\": {}}}", json_escape(&id), echo),
    ) {
        return true;
    }
    stream_job(&id, writer, shared)
}

/// Longest a streamer holds back the events a running job records: it
/// drains them at least this often, and at once when the job ends.
const STREAM_POLL: Duration = Duration::from_millis(2);

/// Streams a job's event JSONL until it reaches a terminal state, then
/// writes the trailer and done lines. Returns `true` on write failure.
fn stream_job(id: &str, writer: &mut TcpStream, shared: &Shared) -> bool {
    let Some(job) = shared.table.get(id) else { return true };
    let (obs, runtime) = (&job.obs, job.spec.runtime.as_str());
    let mut next_seq = 0u64;
    let mut streamed = 0u64;
    // One poll's lines leave in one write and one flush, from a buffer
    // reused across polls.
    let mut batch = String::new();
    let mut flush_events = |writer: &mut TcpStream| -> bool {
        batch.clear();
        for e in obs.events().events_after(next_seq) {
            next_seq = e.seq + 1;
            streamed += 1;
            e.write_json_line(&mut batch);
            batch.push('\n');
        }
        !batch.is_empty()
            && writer.write_all(batch.as_bytes()).and_then(|()| writer.flush()).is_err()
    };
    let (state, ended) = loop {
        if flush_events(writer) {
            return true;
        }
        match shared.table.wait_end(id, STREAM_POLL) {
            Some((state, Some(ended))) => break (state, ended),
            Some(_) => {}
            None => return true,
        }
    };
    // Final drain: the run finished between the last poll and the end;
    // pick up whatever it recorded at the end.
    if flush_events(writer) {
        return true;
    }
    obs.publish_stream_stats();
    let dropped = obs.events().dropped();
    if write_line(
        writer,
        &format!("{{\"trailer\": true, \"streamed\": {streamed}, \"dropped\": {dropped}}}"),
    ) {
        return true;
    }
    let done_line = match state {
        JobState::Done { commits } => {
            // The done line carries only deterministic fields (par-runtime
            // squash counts vary between runs; commit counts do not), so
            // identical spec+seed submissions stream byte-identically.
            format!(
                "{{\"done\": true, \"job\": \"{}\", \"status\": \"ok\", \"runtime\": \"{runtime}\", \"commits\": {commits}}}",
                json_escape(id)
            )
        }
        JobState::Failed { kind, detail } => format!(
            "{{\"done\": true, \"job\": \"{}\", \"status\": \"error\", \"runtime\": \"{runtime}\", \"kind\": \"{}\", \"detail\": \"{}\"}}",
            json_escape(id),
            json_escape(&kind),
            json_escape(&detail)
        ),
        // `end` stamps only terminal states.
        JobState::Queued | JobState::Running => return true,
    };
    // The daemon's own stream lag: the job's end to its `done` line,
    // observed before the write so a client that has read the line
    // scrapes a count that includes it.
    let lag_us = u64::try_from(ended.elapsed().as_micros()).unwrap_or(u64::MAX);
    let lag = shared.table.registry.histogram("bulkd.done_lag_us", &Histogram::pow2_edges(20));
    lag.observe(lag_us);
    write_line(writer, &done_line)
}

/// Answers one control command. Returns `true` when the connection
/// should close.
fn handle_control(cmd: &str, writer: &mut TcpStream, shared: &Shared) -> bool {
    match cmd {
        "ping" => write_line(writer, "{\"ok\": true}"),
        "status" => {
            write_line(writer, &format!("{{\"jobs\": [{}]}}", shared.table.list_json()))
        }
        "shutdown" => {
            let _ = write_line(writer, "{\"ok\": true, \"shutting_down\": true}");
            shared.begin_shutdown();
            true
        }
        other => write_line(
            writer,
            &format!("{{\"error\": \"unknown command `{}`\"}}", json_escape(other)),
        ),
    }
}

/// Writes one line and flushes. Returns `true` on failure (caller drops
/// the connection).
fn write_line(writer: &mut TcpStream, line: &str) -> bool {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_err()
}
