//! A minimal blocking client for the daemon's two sockets, shared by the
//! CLI's `submit`/`status`/`scrape` commands and the integration tests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use bulk_trace::jobspec::{parse_flat_object, FlatValue};

/// Everything one submission produced, already split into lines.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The daemon-assigned (or echoed) job id, when the spec was
    /// accepted.
    pub job: Option<String>,
    /// Every response line: the accepted/error line, the streamed event
    /// JSONL, the trailer and the done line.
    pub lines: Vec<String>,
}

impl Submission {
    /// The terminal line (`{"done": ...}` or `{"error": ...}`).
    pub fn last(&self) -> &str {
        self.lines.last().map(String::as_str).unwrap_or("")
    }

    /// Whether the job ran to a clean completion.
    pub fn ok(&self) -> bool {
        self.last().contains("\"status\": \"ok\"")
    }

    /// The streamed event JSONL (everything between the accepted line
    /// and the trailer), newline-terminated — the per-job event stream,
    /// byte-comparable across identical submissions.
    pub fn event_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            if l.starts_with("{\"accepted\"") || l.starts_with("{\"done\"") {
                continue;
            }
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// Submits one job-spec line and blocks until its done (or error) line.
///
/// # Errors
///
/// Propagates socket errors; a daemon-side rejection is NOT an error —
/// it shows up as an `{"error": ...}` line in the result.
pub fn submit_spec(addr: &str, spec_line: &str) -> io::Result<Submission> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(spec_line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    let mut job = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let l = line.trim_end().to_string();
        if l.starts_with("{\"accepted\"") {
            job = extract_str_field(&l, "job");
        }
        let done = l.starts_with("{\"done\"") || l.starts_with("{\"error\"");
        lines.push(l);
        if done {
            break;
        }
    }
    Ok(Submission { job, lines })
}

/// Sends one control line (`{"cmd": "..."}`) and returns the one-line
/// response.
///
/// # Errors
///
/// Propagates socket errors.
pub fn control(addr: &str, cmd: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("{{\"cmd\": \"{cmd}\"}}\n").as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

/// Issues `GET <path>` against the daemon's HTTP socket; returns
/// `(status, body)`.
///
/// # Errors
///
/// Propagates socket errors and malformed responses.
pub fn http_get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bulkd\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Scrapes `/metrics`; returns the exposition body.
///
/// # Errors
///
/// Fails on socket errors or a non-200 response.
pub fn scrape(addr: &str) -> io::Result<String> {
    let (status, body) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape returned HTTP {status}"),
        ));
    }
    Ok(body)
}

/// Pulls `"<key>": "<value>"` out of one of the daemon's fixed-format
/// response lines, undoing the escapes `json_escape` wrote into the value.
pub fn extract_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let open = line.find(&needle)? + needle.len() - 1;
    // The value ends at the first quote no backslash escapes.
    let bytes = line.as_bytes();
    let mut close = open + 1;
    while *bytes.get(close)? != b'"' {
        close += if bytes[close] == b'\\' { 2 } else { 1 };
    }
    // The literal goes through the workspace's one JSON parser.
    let literal = &line[open..=close];
    match parse_flat_object(&format!("{{\"v\": {literal}}}")).ok()?.pop()? {
        (_, FlatValue::Str(value)) => Some(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_string_fields_from_fixed_format_lines() {
        let l = "{\"accepted\": true, \"job\": \"job-7\", \"spec\": {}}";
        assert_eq!(extract_str_field(l, "job").as_deref(), Some("job-7"));
        assert_eq!(extract_str_field(l, "missing"), None);
        // What the daemon writes for the id `a"b\c`: the value ends at the
        // unescaped quote and comes back unescaped.
        let l = r#"{"accepted": true, "job": "a\"b\\c", "spec": {"id": "a\"b\\c"}}"#;
        assert_eq!(extract_str_field(l, "job").as_deref(), Some("a\"b\\c"));
        assert_eq!(extract_str_field(r#"{"job": "unterminated\"#, "job"), None);
    }

    #[test]
    fn submission_event_jsonl_drops_protocol_lines() {
        let s = Submission {
            job: Some("j".into()),
            lines: vec![
                "{\"accepted\": true, \"job\": \"j\", \"spec\": {}}".into(),
                "{\"seq\": 0, \"cycle\": 1, \"actor\": 0, \"event\": \"ctx_switch\"}".into(),
                "{\"trailer\": true, \"streamed\": 1, \"dropped\": 0}".into(),
                "{\"done\": true, \"job\": \"j\", \"status\": \"ok\", \"runtime\": \"sim\", \"commits\": 4}".into(),
            ],
        };
        assert!(s.ok());
        let jsonl = s.event_jsonl();
        assert_eq!(jsonl.lines().count(), 2, "event + trailer");
        assert!(jsonl.ends_with("\"dropped\": 0}\n"));
    }
}
