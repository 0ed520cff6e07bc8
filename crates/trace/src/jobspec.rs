//! Job specifications for the `bulkd` daemon: one line-delimited JSON
//! object per submitted run, naming the machine, application profile,
//! scheme, seed and runtime.
//!
//! The wire format is a *flat* JSON object — string, unsigned-integer
//! and boolean values only, no nesting — parsed by a hand-rolled,
//! dependency-free reader with typed errors. A spec round-trips through
//! [`JobSpec::to_json_line`] deterministically, so the daemon can echo
//! the canonical form of what it accepted and two submissions of the
//! same spec compare byte-identically.
//!
//! ```
//! use bulk_trace::jobspec::JobSpec;
//!
//! let spec = JobSpec::parse(
//!     r#"{"machine": "tm", "app": "mc", "scheme": "bulk", "seed": 7}"#,
//! ).unwrap();
//! assert_eq!(spec.machine, bulk_trace::jobspec::Machine::Tm);
//! assert_eq!(spec.seed, 7);
//! assert_eq!(spec.runtime, bulk_trace::jobspec::JobRuntime::Sim);
//! ```

use std::fmt;

use bulk_obs::json_escape;

/// Which machine family a job drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// The transactional-memory machine (`bulk tm`).
    Tm,
    /// The thread-level-speculation machine (`bulk tls`).
    Tls,
}

impl Machine {
    /// Stable lowercase name (`tm` / `tls`), as used on the wire and in
    /// scrape labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Machine::Tm => "tm",
            Machine::Tls => "tls",
        }
    }
}

/// Which execution substrate runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobRuntime {
    /// The deterministic simulator (the oracle).
    Sim,
    /// The parallel runtime on real OS threads.
    Par,
}

impl JobRuntime {
    /// Stable lowercase name (`sim` / `par`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobRuntime::Sim => "sim",
            JobRuntime::Par => "par",
        }
    }
}

/// A typed job-spec parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpecError {
    /// The line is not a flat JSON object of string/number/bool values.
    Malformed(String),
    /// A required key is absent.
    MissingKey(&'static str),
    /// A key holds a value of the wrong JSON type.
    WrongType {
        /// The offending key.
        key: String,
        /// The JSON type the key requires.
        expected: &'static str,
    },
    /// A key holds an unrecognized enumeration value.
    BadValue {
        /// The offending key.
        key: &'static str,
        /// The value submitted.
        value: String,
        /// Human-readable list of accepted values.
        allowed: &'static str,
    },
    /// The object contains a key the daemon does not understand —
    /// rejected rather than ignored so a typo never silently changes a
    /// run.
    UnknownKey(String),
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::Malformed(m) => write!(f, "malformed job spec: {m}"),
            JobSpecError::MissingKey(k) => write!(f, "job spec missing required key `{k}`"),
            JobSpecError::WrongType { key, expected } => {
                write!(f, "job spec key `{key}` must be a {expected}")
            }
            JobSpecError::BadValue { key, value, allowed } => {
                write!(f, "job spec key `{key}`: `{value}` is not one of {allowed}")
            }
            JobSpecError::UnknownKey(k) => write!(f, "job spec has unknown key `{k}`"),
        }
    }
}

impl std::error::Error for JobSpecError {}

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatValue {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative integer (the only number shape specs use).
    Num(u64),
    /// A JSON boolean.
    Bool(bool),
}

/// Parses one line as a flat JSON object (`{"k": "v", "n": 3, …}`):
/// string keys, scalar values, no nesting, duplicate keys rejected.
/// Shared by [`JobSpec::parse`] and the daemon's control commands.
///
/// # Errors
///
/// Returns [`JobSpecError::Malformed`] describing the first syntax
/// problem.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, FlatValue)>, JobSpecError> {
    let mut p = Parser { s: line.as_bytes(), i: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out: Vec<(String, FlatValue)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if out.iter().any(|(k, _)| *k == key) {
                return Err(JobSpecError::Malformed(format!("duplicate key `{key}`")));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            out.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(JobSpecError::Malformed(format!(
                        "expected `,` or `}}`, found {other:?}"
                    )))
                }
            }
        }
    }
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(JobSpecError::Malformed("trailing bytes after object".to_string()));
    }
    Ok(out)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JobSpecError> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            got => Err(JobSpecError::Malformed(format!(
                "expected `{}`, found {got:?}",
                b as char
            ))),
        }
    }

    fn string(&mut self) -> Result<String, JobSpecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(JobSpecError::Malformed("unterminated string".to_string())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or_else(|| {
                                JobSpecError::Malformed("truncated \\u escape".to_string())
                            })?;
                            let v = (d as char).to_digit(16).ok_or_else(|| {
                                JobSpecError::Malformed("bad \\u escape digit".to_string())
                            })?;
                            code = code * 16 + v;
                        }
                        // Specs are BMP-only; surrogates are rejected.
                        let c = char::from_u32(code).ok_or_else(|| {
                            JobSpecError::Malformed(format!("\\u{code:04x} is not a scalar value"))
                        })?;
                        out.push(c);
                    }
                    other => {
                        return Err(JobSpecError::Malformed(format!("bad escape {other:?}")))
                    }
                },
                Some(b) if b < 0x20 => {
                    return Err(JobSpecError::Malformed("raw control char in string".to_string()))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte.
                    let start = self.i - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let end = start + len;
                    let chunk = self.s.get(start..end).ok_or_else(|| {
                        JobSpecError::Malformed("truncated UTF-8 sequence".to_string())
                    })?;
                    let s = std::str::from_utf8(chunk).map_err(|_| {
                        JobSpecError::Malformed("invalid UTF-8 in string".to_string())
                    })?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<FlatValue, JobSpecError> {
        match self.peek() {
            Some(b'"') => Ok(FlatValue::Str(self.string()?)),
            Some(b't') => self.literal("true", FlatValue::Bool(true)),
            Some(b'f') => self.literal("false", FlatValue::Bool(false)),
            Some(b'0'..=b'9') => {
                let start = self.i;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.i += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err(JobSpecError::Malformed(
                        "job specs take non-negative integers only".to_string(),
                    ));
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("digits are ascii");
                let n = text.parse().map_err(|_| {
                    JobSpecError::Malformed(format!("number out of range: `{text}`"))
                })?;
                Ok(FlatValue::Num(n))
            }
            Some(b'{') | Some(b'[') => Err(JobSpecError::Malformed(
                "job specs are flat objects; nested values are not allowed".to_string(),
            )),
            other => Err(JobSpecError::Malformed(format!("unexpected value start {other:?}"))),
        }
    }

    fn literal(&mut self, lit: &str, v: FlatValue) -> Result<FlatValue, JobSpecError> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(JobSpecError::Malformed(format!("bad literal (expected `{lit}`)")))
        }
    }
}

/// One submitted run: what to execute and under which substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen job name; the daemon generates `job-<n>` if absent.
    pub id: Option<String>,
    /// TM or TLS.
    pub machine: Machine,
    /// Application profile name (see `bulk list`).
    pub app: String,
    /// Scheme name in CLI kebab form (`bulk`, `eager`, `lazy`, …);
    /// validated downstream by the machine crates' `FromStr`.
    pub scheme: String,
    /// Workload seed (default 42, like the CLI).
    pub seed: u64,
    /// Execution substrate (default sim).
    pub runtime: JobRuntime,
    /// TM: transactions per thread override.
    pub txs: Option<u64>,
    /// TLS: task-count override.
    pub tasks: Option<u64>,
    /// Wall-clock budget for the run; the daemon's default applies if
    /// absent. `0` disables the watchdog for this job.
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with the defaults every front door shares: seed 42, the
    /// simulator, no overrides.
    pub fn new(machine: Machine, app: &str, scheme: &str) -> JobSpec {
        JobSpec {
            id: None,
            machine,
            app: app.to_string(),
            scheme: scheme.to_string(),
            seed: 42,
            runtime: JobRuntime::Sim,
            txs: None,
            tasks: None,
            timeout_ms: None,
        }
    }

    /// Parses one line-delimited JSON job spec.
    ///
    /// # Errors
    ///
    /// Returns a typed [`JobSpecError`]; unknown keys are rejected.
    pub fn parse(line: &str) -> Result<JobSpec, JobSpecError> {
        let pairs = parse_flat_object(line)?;
        let mut spec = JobSpec::new(Machine::Tm, "", "");
        let (mut saw_machine, mut saw_app, mut saw_scheme) = (false, false, false);
        for (key, value) in pairs {
            match key.as_str() {
                "id" => spec.id = Some(take_str(&key, value)?),
                "machine" => {
                    saw_machine = true;
                    spec.machine = match take_str(&key, value)?.as_str() {
                        "tm" => Machine::Tm,
                        "tls" => Machine::Tls,
                        other => {
                            return Err(JobSpecError::BadValue {
                                key: "machine",
                                value: other.to_string(),
                                allowed: "`tm`, `tls`",
                            })
                        }
                    };
                }
                "app" => {
                    saw_app = true;
                    spec.app = take_str(&key, value)?;
                }
                "scheme" => {
                    saw_scheme = true;
                    spec.scheme = take_str(&key, value)?;
                }
                "seed" => spec.seed = take_num(&key, value)?,
                "runtime" => {
                    spec.runtime = match take_str(&key, value)?.as_str() {
                        "sim" => JobRuntime::Sim,
                        "par" => JobRuntime::Par,
                        other => {
                            return Err(JobSpecError::BadValue {
                                key: "runtime",
                                value: other.to_string(),
                                allowed: "`sim`, `par`",
                            })
                        }
                    };
                }
                "txs" => spec.txs = Some(take_num(&key, value)?),
                "tasks" => spec.tasks = Some(take_num(&key, value)?),
                "timeout_ms" => spec.timeout_ms = Some(take_num(&key, value)?),
                _ => return Err(JobSpecError::UnknownKey(key)),
            }
        }
        if !saw_machine {
            return Err(JobSpecError::MissingKey("machine"));
        }
        if !saw_app {
            return Err(JobSpecError::MissingKey("app"));
        }
        if !saw_scheme {
            return Err(JobSpecError::MissingKey("scheme"));
        }
        Ok(spec)
    }

    /// The canonical one-line JSON form: fixed key order, optional keys
    /// omitted when unset. Deterministic, so identical specs serialize
    /// byte-identically regardless of the submission's key order.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        if let Some(id) = &self.id {
            out.push_str(&format!("\"id\": \"{}\", ", json_escape(id)));
        }
        out.push_str(&format!(
            "\"machine\": \"{}\", \"app\": \"{}\", \"scheme\": \"{}\", \"seed\": {}, \
             \"runtime\": \"{}\"",
            self.machine.as_str(),
            json_escape(&self.app),
            json_escape(&self.scheme),
            self.seed,
            self.runtime.as_str()
        ));
        if let Some(v) = self.txs {
            out.push_str(&format!(", \"txs\": {v}"));
        }
        if let Some(v) = self.tasks {
            out.push_str(&format!(", \"tasks\": {v}"));
        }
        if let Some(v) = self.timeout_ms {
            out.push_str(&format!(", \"timeout_ms\": {v}"));
        }
        out.push('}');
        out
    }
}

fn take_str(key: &str, v: FlatValue) -> Result<String, JobSpecError> {
    match v {
        FlatValue::Str(s) => Ok(s),
        _ => Err(JobSpecError::WrongType { key: key.to_string(), expected: "string" }),
    }
}

fn take_num(key: &str, v: FlatValue) -> Result<u64, JobSpecError> {
    match v {
        FlatValue::Num(n) => Ok(n),
        _ => Err(JobSpecError::WrongType { key: key.to_string(), expected: "number" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_tm_spec_with_defaults() {
        let s = JobSpec::parse(r#"{"machine": "tm", "app": "mc", "scheme": "bulk"}"#).unwrap();
        assert_eq!(s.machine, Machine::Tm);
        assert_eq!(s.app, "mc");
        assert_eq!(s.scheme, "bulk");
        assert_eq!(s.seed, 42);
        assert_eq!(s.runtime, JobRuntime::Sim);
        assert_eq!(s.id, None);
        assert_eq!(s.timeout_ms, None);
    }

    #[test]
    fn parses_full_tls_par_spec() {
        let s = JobSpec::parse(
            r#"{"id": "j1", "machine": "tls", "app": "gzip", "scheme": "bulk",
                "seed": 7, "runtime": "par", "tasks": 60, "timeout_ms": 5000}"#,
        )
        .unwrap();
        assert_eq!(s.id.as_deref(), Some("j1"));
        assert_eq!(s.machine, Machine::Tls);
        assert_eq!(s.runtime, JobRuntime::Par);
        assert_eq!(s.tasks, Some(60));
        assert_eq!(s.timeout_ms, Some(5000));
    }

    #[test]
    fn missing_required_keys_are_typed() {
        assert_eq!(
            JobSpec::parse(r#"{"machine": "tm", "scheme": "bulk"}"#),
            Err(JobSpecError::MissingKey("app"))
        );
        assert_eq!(
            JobSpec::parse(r#"{"app": "mc", "scheme": "bulk"}"#),
            Err(JobSpecError::MissingKey("machine"))
        );
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert_eq!(
            JobSpec::parse(r#"{"machine": "tm", "app": "mc", "scheme": "bulk", "sede": 3}"#),
            Err(JobSpecError::UnknownKey("sede".to_string()))
        );
        // The retired stall hook: a client must not be able to park a worker.
        assert_eq!(
            JobSpec::parse(
                r#"{"machine": "tm", "app": "mc", "scheme": "bulk", "timeout_ms": 0, "hang_ms": 60000}"#
            ),
            Err(JobSpecError::UnknownKey("hang_ms".to_string()))
        );
        assert!(matches!(
            JobSpec::parse(r#"{"machine": "gpu", "app": "mc", "scheme": "bulk"}"#),
            Err(JobSpecError::BadValue { key: "machine", .. })
        ));
        assert!(matches!(
            JobSpec::parse(r#"{"machine": "tm", "app": "mc", "scheme": "bulk", "seed": "x"}"#),
            Err(JobSpecError::WrongType { .. })
        ));
    }

    #[test]
    fn nested_and_malformed_objects_are_rejected() {
        assert!(matches!(
            JobSpec::parse(r#"{"machine": {"x": 1}, "app": "mc", "scheme": "bulk"}"#),
            Err(JobSpecError::Malformed(_))
        ));
        assert!(matches!(JobSpec::parse("not json"), Err(JobSpecError::Malformed(_))));
        assert!(matches!(
            JobSpec::parse(r#"{"a": 1} trailing"#),
            Err(JobSpecError::Malformed(_))
        ));
        assert!(matches!(
            JobSpec::parse(r#"{"a": 1, "a": 2}"#),
            Err(JobSpecError::Malformed(_))
        ));
        assert!(matches!(
            JobSpec::parse(r#"{"seed": 1.5, "machine": "tm"}"#),
            Err(JobSpecError::Malformed(_))
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let pairs =
            parse_flat_object(r#"{"k": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(pairs[0].1, FlatValue::Str("a\"b\\c\ndA".to_string()));
        // The canonical line escapes what the reader unescapes.
        let mut spec = JobSpec::new(Machine::Tm, "mc", "bulk");
        spec.id = Some("t\tr\ru\u{1}\"\\".to_string());
        assert_eq!(JobSpec::parse(&spec.to_json_line()).unwrap(), spec);
    }

    #[test]
    fn canonical_line_is_key_order_independent() {
        let a = JobSpec::parse(
            r#"{"scheme": "bulk", "seed": 9, "machine": "tm", "app": "mc"}"#,
        )
        .unwrap();
        let b = JobSpec::parse(
            r#"{"machine": "tm", "app": "mc", "seed": 9, "scheme": "bulk"}"#,
        )
        .unwrap();
        assert_eq!(a.to_json_line(), b.to_json_line());
        // And the canonical line re-parses to the same spec.
        assert_eq!(JobSpec::parse(&a.to_json_line()).unwrap(), a);
    }

    #[test]
    fn empty_object_parses_as_no_pairs() {
        assert_eq!(parse_flat_object("{}").unwrap(), vec![]);
        assert_eq!(parse_flat_object("  { }  ").unwrap(), vec![]);
    }
}
