//! A hand-rolled HTTP/1.1 responder for the scrape endpoint.
//!
//! Only what a Prometheus scraper needs: `GET /metrics` in text
//! exposition format v0.0.4, plus `GET /healthz` and `GET /jobs` for
//! humans. Each response closes the connection (`Connection: close`), so
//! no keep-alive state machine is required.

use std::io::Write;
use std::net::TcpStream;
use std::thread;

use bulk_obs::prometheus::{encode, Scope};

use crate::daemon::{line_too_long, read_line_interruptible, split, ReadOutcome, Shared};

/// Handles one HTTP connection: parse the request, route, respond,
/// close. It starts no threads of its own, so it leaves the scope alone.
pub(crate) fn handle(stream: TcpStream, shared: &Shared, _: &thread::Scope<'_, '_>) {
    let Some((mut reader, mut writer)) = split(stream) else { return };
    // Both are read like ingest lines, so a client that connects and goes
    // quiet cannot hold shutdown hostage.
    let mut request_line = Vec::new();
    let mut outcome = read_line_interruptible(&mut reader, &mut request_line, shared);
    // Drain headers up to the blank line; we need none of them.
    let mut header = Vec::new();
    while matches!(outcome, ReadOutcome::Line) && header != b"\r\n" && header != b"\n" {
        header.clear();
        outcome = read_line_interruptible(&mut reader, &mut header, shared);
    }
    match outcome {
        ReadOutcome::TooLong => {
            let body = format!("{}\n", line_too_long());
            return respond(&mut writer, 400, "text/plain; charset=utf-8", &body);
        }
        ReadOutcome::Shutdown => return,
        ReadOutcome::Eof if request_line.is_empty() => return,
        ReadOutcome::Eof | ReadOutcome::Line => {}
    }
    let request_line = String::from_utf8_lossy(&request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(&mut writer, 405, "text/plain; charset=utf-8", "method not allowed\n");
        return;
    }
    match path {
        "/metrics" => {
            shared.table.registry.counter("bulkd.scrapes").add(1);
            let body = render_metrics(shared);
            respond(
                &mut writer,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => respond(&mut writer, 200, "text/plain; charset=utf-8", "ok\n"),
        "/jobs" => {
            // The job table as a JSON array, one object per job.
            let body = format!("[{}]\n", shared.table.list_json());
            respond(&mut writer, 200, "application/json; charset=utf-8", &body);
        }
        _ => respond(&mut writer, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// The full exposition: the daemon's own registry unlabelled, then one
/// labelled scope per job so every sample is attributable to its run.
/// The state gauges and the scopes come from one snapshot of the table,
/// so a job's scope and the gauges agree on its state.
pub(crate) fn render_metrics(shared: &Shared) -> String {
    let snaps = shared.table.snapshot();
    let registry = &shared.table.registry;
    let count = |state| snaps.iter().filter(|s| s.state.as_str() == state).count() as u64;
    registry.gauge("bulkd.jobs_queued").set(count("queued"));
    registry.gauge("bulkd.jobs_running").set(count("running"));
    registry.gauge("bulkd.jobs_done").set(count("done"));
    registry.gauge("bulkd.jobs_failed_total").set(count("failed"));
    for s in &snaps {
        // Refresh each job's stream gauges (events.dropped, buffer hwm)
        // so the scrape reflects the ring's latest accounting.
        s.obs.publish_stream_stats();
    }
    let mut scopes = vec![Scope::unlabelled(registry)];
    for s in &snaps {
        scopes.push(Scope::labelled(
            &[
                ("job", s.id.as_str()),
                ("machine", s.spec.machine.as_str()),
                ("scheme", s.spec.scheme.as_str()),
                ("runtime", s.spec.runtime.as_str()),
            ],
            s.obs.registry(),
        ));
    }
    encode(&scopes)
}

/// Writes a complete HTTP/1.1 response and flushes.
fn respond(writer: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.write_all(body.as_bytes()))
        .and_then(|()| writer.flush());
}
