//! Prometheus text exposition (format version 0.0.4) for the metrics
//! [`Registry`], plus a strict parser used to parse-check scrapes in
//! tests and smoke scripts.
//!
//! The encoder is hand-rolled and dependency-free, consistent with the
//! hermetic offline build. It renders one or more *scopes* — a label set
//! plus a registry — into a single exposition document:
//!
//! * every metric name is prefixed with the `bulk_` namespace and
//!   sanitized to the Prometheus grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`;
//!   the registry's dotted names become underscored),
//! * label values are escaped per the exposition format (`\\`, `\"`,
//!   `\n`),
//! * counters and gauges render as single samples,
//! * histograms render with cumulative `_bucket{le="…"}` samples
//!   (including the mandatory `le="+Inf"`), `_sum` and `_count`, and
//!   additionally as a synthetic `_summary` family carrying the
//!   upper-edge p50/p95/p99 estimates from
//!   [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile)
//!   over the same read of the buckets.
//!
//! Scopes let one scrape surface carry many concurrent runs: the daemon
//! hands the encoder its own registry (no labels) plus each job's
//! registry under `{job=…, machine=…, scheme=…, runtime=…}` labels, and
//! identical registry state always encodes byte-identically (families
//! sorted by name, samples in scope order, buckets in edge order).

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use crate::metrics::Registry;

/// Quantiles rendered in every histogram's synthetic `_summary` family.
pub const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Namespace prefix applied to every encoded metric name.
pub const NAMESPACE: &str = "bulk_";

/// One labelled registry to encode: all samples from `registry` carry
/// `labels` (in the given order) on the scrape surface.
#[derive(Debug, Clone)]
pub struct Scope<'a> {
    /// Label pairs applied to every sample of this scope.
    pub labels: Vec<(String, String)>,
    /// The registry whose metrics the scope exposes.
    pub registry: &'a Registry,
}

impl<'a> Scope<'a> {
    /// A scope with no labels (a process-level registry).
    pub fn unlabelled(registry: &'a Registry) -> Self {
        Scope { labels: Vec::new(), registry }
    }

    /// A scope whose samples carry the given label pairs.
    pub fn labelled(labels: &[(&str, &str)], registry: &'a Registry) -> Self {
        Scope {
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            registry,
        }
    }
}

/// Sanitizes a metric name to the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`, and a
/// leading digit gains a `_` prefix. The empty string becomes `"_"`.
pub fn sanitize_metric_name(name: &str) -> String {
    sanitize_name(name, true)
}

/// Sanitizes a label name to `[a-zA-Z_][a-zA-Z0-9_]*` (no colons, unlike
/// metric names).
pub fn sanitize_label_name(name: &str) -> String {
    sanitize_name(name, false)
}

/// The name grammar, for the `i`th character of a name: a letter or
/// `_`, a digit past the first character, and `:` in a metric name only.
fn name_char(i: usize, c: char, colon: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || (colon && c == ':') || (i > 0 && c.is_ascii_digit())
}

fn sanitize_name(name: &str, colon: bool) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push(if name_char(i, c, colon) { c } else { '_' });
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the text exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_label_value`].
///
/// # Errors
///
/// Returns a message when the input contains an invalid escape sequence,
/// a trailing lone backslash, or an unescaped quote/newline.
pub fn unescape_label_value(v: &str) -> Result<String, String> {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => return Err(format!("invalid escape `\\{other}`")),
                None => return Err("trailing lone backslash".to_string()),
            },
            '"' => return Err("unescaped quote in label value".to_string()),
            '\n' => return Err("unescaped newline in label value".to_string()),
            c => out.push(c),
        }
    }
    Ok(out)
}

/// A sample value rendered the way Prometheus expects: `NaN`, `+Inf`,
/// `-Inf`, or the shortest decimal that reads back as the value.
struct Value(f64);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            v if v.is_nan() => f.write_str("NaN"),
            f64::INFINITY => f.write_str("+Inf"),
            f64::NEG_INFINITY => f.write_str("-Inf"),
            v => write!(f, "{v}"),
        }
    }
}

/// A scope's labels, sanitized and escaped once: `plain` is the block a
/// sample without an extra label carries (`{job="a"}`, or nothing), and
/// `open` starts the block of one that adds an `le` or `quantile` pair
/// (`{job="a",`, or `{`).
struct Labels {
    plain: String,
    open: String,
}

impl Labels {
    fn of(labels: &[(String, String)]) -> Labels {
        let mut open = String::from("{");
        for (k, v) in labels {
            let _ = write!(open, "{}=\"{}\",", sanitize_label_name(k), escape_label_value(v));
        }
        let plain = if labels.is_empty() {
            String::new()
        } else {
            format!("{}}}", &open[..open.len() - 1])
        };
        Labels { plain, open }
    }
}

/// The buffer of family `name`, created as `kind` by its first sample.
/// First type wins: a later scope whose same-named metric has a different
/// type gets `None` and is dropped rather than corrupting the family
/// (registries cannot produce this internally; it would take two scopes
/// disagreeing about a name). The name is copied into the map only when
/// the family is new.
fn family<'f>(
    families: &'f mut BTreeMap<String, (&'static str, String)>,
    name: &str,
    kind: &'static str,
) -> Option<&'f mut String> {
    if !families.contains_key(name) {
        families.insert(name.to_string(), (kind, String::new()));
    }
    let (have, body) = families.get_mut(name).expect("inserted above");
    (*have == kind).then_some(body)
}

/// Encodes the scopes as one Prometheus text-exposition document.
/// Families are sorted by name; within a family, samples appear in scope
/// order (then bucket order). Identical registry state encodes
/// byte-identically.
///
/// One pass: each scope's label block and each metric's family name are
/// rendered once, and samples are written straight into their family's
/// buffer.
pub fn encode(scopes: &[Scope<'_>]) -> String {
    let mut families: BTreeMap<String, (&'static str, String)> = BTreeMap::new();
    let fam_name = |name: &str| format!("{NAMESPACE}{}", sanitize_metric_name(name));
    // `write!` into a `String` cannot fail.
    for scope in scopes {
        let Labels { plain, open } = Labels::of(&scope.labels);
        for (name, value) in scope.registry.counters() {
            let fam = fam_name(&name);
            if let Some(out) = family(&mut families, &fam, "counter") {
                let _ = writeln!(out, "{fam}{plain} {value}");
            }
        }
        for (name, value) in scope.registry.gauges() {
            let fam = fam_name(&name);
            if let Some(out) = family(&mut families, &fam, "gauge") {
                let _ = writeln!(out, "{fam}{plain} {value}");
            }
        }
        for (name, h) in scope.registry.histograms() {
            let fam = fam_name(&name);
            // Other threads may be observing: the buckets are read once,
            // and `+Inf`, both `_count`s and the summary's quantiles all
            // come from that one read, so a mid-run scrape is cumulative
            // and self-consistent.
            let snap = h.snapshot();
            let (count, sum) = (snap.count(), h.sum());
            if let Some(out) = family(&mut families, &fam, "histogram") {
                let mut cum = 0u64;
                for (edge, n) in snap.edges().iter().zip(snap.bucket_counts()) {
                    cum += n;
                    let _ = writeln!(out, "{fam}_bucket{open}le=\"{edge}\"}} {cum}");
                }
                let _ = writeln!(out, "{fam}_bucket{open}le=\"+Inf\"}} {count}");
                let _ = writeln!(out, "{fam}_sum{plain} {sum}");
                let _ = writeln!(out, "{fam}_count{plain} {count}");
            }
            // Synthetic summary: upper-edge quantile estimates, so a
            // scraper sees p50/p95/p99 without running histogram_quantile.
            let sfam = format!("{fam}_summary");
            if let Some(out) = family(&mut families, &sfam, "summary") {
                for q in SUMMARY_QUANTILES {
                    let v = Value(snap.quantile(q).unwrap_or(f64::NAN));
                    let _ = writeln!(out, "{sfam}{open}quantile=\"{}\"}} {v}", Value(q));
                }
                let _ = writeln!(out, "{sfam}_sum{plain} {sum}");
                let _ = writeln!(out, "{sfam}_count{plain} {count}");
            }
        }
    }
    let type_line = |name: &str, kind: &str| "# TYPE  \n".len() + name.len() + kind.len();
    let len = families.iter().map(|(name, (kind, body))| type_line(name, kind) + body.len());
    let mut out = String::with_capacity(len.sum());
    for (name, (kind, body)) in &families {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        out.push_str(body);
    }
    out
}

/// One parsed sample line of an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// The sample's full metric name (e.g. `bulk_tm_commits_bucket`).
    pub name: String,
    /// Label pairs, unescaped, in document order.
    pub labels: Vec<(String, String)>,
    /// The sample value (`NaN`/`+Inf` parse to the IEEE values).
    pub value: f64,
}

/// A parsed exposition document: declared family types plus all samples.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → type.
    pub types: BTreeMap<String, String>,
    /// Every sample line, in document order.
    pub samples: Vec<ParsedSample>,
}

impl Exposition {
    /// The value of the unique sample with `name` and exactly the given
    /// label pairs (order-insensitive), if present.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples.iter().find_map(|s| {
            let matches = s.name == name
                && s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v));
            matches.then_some(s.value)
        })
    }
}

/// Whether `s` is a valid metric name (`colon`) or label name.
fn valid_name(s: &str, colon: bool) -> bool {
    !s.is_empty() && s.chars().enumerate().all(|(i, c)| name_char(i, c, colon))
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other.parse().map_err(|_| format!("bad sample value `{other}`")),
    }
}

/// Parses one sample line (`name{labels} value`).
fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let (name, rest) = match line.find(|c| c == '{' || c == ' ') {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err(format!("sample line without value: `{line}`")),
    };
    if !valid_name(name, true) {
        return Err(format!("invalid metric name `{name}`"));
    }
    let mut labels = Vec::new();
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = find_label_block_end(body)
            .ok_or_else(|| format!("unterminated label block in `{line}`"))?;
        let (block, after) = (&body[..close], &body[close + 1..]);
        for pair in split_label_pairs(block)? {
            let (k, v) = pair;
            if !valid_name(&k, false) {
                return Err(format!("invalid label name `{k}`"));
            }
            labels.push((k, unescape_label_value(&v)?));
        }
        after
    } else {
        rest
    };
    let value = parse_value(rest.trim())?;
    Ok(ParsedSample { name: name.to_string(), labels, value })
}

/// Finds the index of the label block's closing `}` in `body` (which
/// starts just after `{`), honouring quoted, escaped values.
fn find_label_block_end(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Splits `k="v",k2="v2"` into raw (still-escaped) pairs.
fn split_label_pairs(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label pair without `=`: `{rest}`"))?;
        let key = rest[..eq].trim().to_string();
        let after_eq = &rest[eq + 1..];
        let body = after_eq
            .strip_prefix('"')
            .ok_or_else(|| format!("label value not quoted: `{after_eq}`"))?;
        // Find the closing quote, honouring escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: `{body}`"))?;
        out.push((key, body[..end].to_string()));
        rest = body[end + 1..].trim_start_matches(',').trim_start();
    }
    Ok(out)
}

/// Parses a full exposition document.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without name", lineno + 1))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without kind", lineno + 1))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {}: unknown TYPE kind `{kind}`", lineno + 1));
                }
                if exp.types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {}: duplicate TYPE for `{name}`", lineno + 1));
                }
            }
            continue; // HELP and other comments are free-form
        }
        let sample =
            parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        exp.samples.push(sample);
    }
    Ok(exp)
}

/// The family a sample belongs to: its own name, or — when the name ends
/// in a histogram/summary sub-sample suffix whose base is a declared
/// family — the base name.
fn family_of<'e>(exp: &'e Exposition, sample: &str) -> Option<&'e str> {
    if exp.types.contains_key(sample) {
        return exp.types.get_key_value(sample).map(|(k, _)| k.as_str());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample.strip_suffix(suffix) {
            if let Some((k, kind)) = exp.types.get_key_value(base) {
                if kind == "histogram" || kind == "summary" {
                    return Some(k.as_str());
                }
            }
        }
    }
    None
}

/// Parse-checks an exposition document strictly: every sample must
/// belong to a declared `# TYPE` family, and every histogram's buckets
/// must be cumulative-monotone with `le="+Inf"` equal to `_count`.
/// Returns `(families, samples)` counts on success.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate(text: &str) -> Result<(usize, usize), String> {
    let exp = parse_exposition(text)?;
    for s in &exp.samples {
        if family_of(&exp, &s.name).is_none() {
            return Err(format!("sample `{}` has no # TYPE declaration", s.name));
        }
    }
    // Group histogram buckets per (family, non-le labels) and check
    // monotone cumulative counts against _count.
    let mut series: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    for s in &exp.samples {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            if exp.types.get(base).map(String::as_str) != Some("histogram") {
                continue;
            }
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("bucket of `{base}` without le label"))?;
            let le_val = parse_value(&le.1)?;
            let key = (base.to_string(), non_le_labels(&s.labels));
            series.entry(key).or_default().push((le_val, s.value));
        } else if let Some(base) = s.name.strip_suffix("_count") {
            if exp.types.get(base).map(String::as_str) == Some("histogram") {
                counts.insert((base.to_string(), non_le_labels(&s.labels)), s.value);
            }
        }
    }
    for ((base, labels), buckets) in &series {
        let mut sorted = buckets.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = -1.0f64;
        for (le, cum) in &sorted {
            if *cum < prev {
                return Err(format!(
                    "histogram `{base}`{{{labels}}}: bucket le={le} count {cum} < previous {prev}"
                ));
            }
            prev = *cum;
        }
        match sorted.last() {
            Some((le, last)) if le.is_infinite() => {
                let count = counts.get(&(base.clone(), labels.clone())).copied();
                if count != Some(*last) {
                    return Err(format!(
                        "histogram `{base}`{{{labels}}}: +Inf bucket {last} != _count {count:?}"
                    ));
                }
            }
            _ => {
                return Err(format!("histogram `{base}`{{{labels}}}: missing le=\"+Inf\" bucket"))
            }
        }
    }
    Ok((exp.types.len(), exp.samples.len()))
}

/// Canonical rendering of a sample's labels minus `le`, for grouping.
fn non_le_labels(labels: &[(String, String)]) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    pairs.sort();
    pairs.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("tm.commits"), "tm_commits");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_label_name("job:id"), "job_id");
    }

    #[test]
    fn escapes_and_unescapes_label_values() {
        let raw = "a\\b\"c\nd";
        let esc = escape_label_value(raw);
        assert_eq!(esc, "a\\\\b\\\"c\\nd");
        assert_eq!(unescape_label_value(&esc).unwrap(), raw);
        assert!(unescape_label_value("trailing\\").is_err());
        assert!(unescape_label_value("bad\\x").is_err());
    }

    #[test]
    fn encodes_counters_gauges_histograms() {
        let reg = Registry::new();
        reg.counter("tm.commits").add(5);
        reg.gauge("jobs.running").set(2);
        let h = reg.histogram("tm.commit.latency_cycles", &[1, 4]);
        h.observe(1);
        h.observe(3);
        h.observe(9);
        let text = encode(&[Scope::labelled(&[("job", "j1")], &reg)]);
        assert!(text.contains("# TYPE bulk_tm_commits counter"));
        assert!(text.contains("bulk_tm_commits{job=\"j1\"} 5"));
        assert!(text.contains("# TYPE bulk_jobs_running gauge"));
        assert!(text
            .contains("bulk_tm_commit_latency_cycles_bucket{job=\"j1\",le=\"1\"} 1"));
        assert!(text
            .contains("bulk_tm_commit_latency_cycles_bucket{job=\"j1\",le=\"4\"} 2"));
        assert!(text
            .contains("bulk_tm_commit_latency_cycles_bucket{job=\"j1\",le=\"+Inf\"} 3"));
        assert!(text.contains("bulk_tm_commit_latency_cycles_sum{job=\"j1\"} 13"));
        assert!(text.contains("bulk_tm_commit_latency_cycles_count{job=\"j1\"} 3"));
        assert!(text.contains("# TYPE bulk_tm_commit_latency_cycles_summary summary"));
        assert!(text
            .contains("bulk_tm_commit_latency_cycles_summary{job=\"j1\",quantile=\"0.5\"} 4"));
        validate(&text).unwrap();
    }

    #[test]
    fn empty_histogram_summary_is_nan_and_still_validates() {
        let reg = Registry::new();
        reg.histogram("h", &[1]);
        let text = encode(&[Scope::unlabelled(&reg)]);
        assert!(text.contains("bulk_h_summary{quantile=\"0.5\"} NaN"));
        validate(&text).unwrap();
    }

    #[test]
    fn multiple_scopes_share_families_in_scope_order() {
        let a = Registry::new();
        a.counter("commits").add(1);
        let b = Registry::new();
        b.counter("commits").add(2);
        let text = encode(&[
            Scope::labelled(&[("job", "a")], &a),
            Scope::labelled(&[("job", "b")], &b),
        ]);
        let type_lines = text.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(type_lines, 1, "one family, one TYPE line:\n{text}");
        let ia = text.find("job=\"a\"").unwrap();
        let ib = text.find("job=\"b\"").unwrap();
        assert!(ia < ib, "samples in scope order");
        validate(&text).unwrap();
    }

    #[test]
    fn parse_round_trips_labels() {
        let line = "m{job=\"a\\\\b\\\"c\",x=\"y\"} 4.5";
        let s = parse_sample(line).unwrap();
        assert_eq!(s.name, "m");
        assert_eq!(s.labels[0], ("job".to_string(), "a\\b\"c".to_string()));
        assert_eq!(s.labels[1], ("x".to_string(), "y".to_string()));
        assert_eq!(s.value, 4.5);
    }

    #[test]
    fn parse_handles_inf_and_nan() {
        assert_eq!(parse_sample("m 1").unwrap().value, 1.0);
        assert_eq!(parse_sample("m +Inf").unwrap().value, f64::INFINITY);
        assert!(parse_sample("m NaN").unwrap().value.is_nan());
        assert!(parse_sample("m{} oops").is_err());
        assert!(parse_sample("9bad 1").is_err());
    }

    #[test]
    fn validate_rejects_untyped_samples_and_broken_buckets() {
        assert!(validate("lonely_sample 3\n").is_err());
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 3\n\
                   h_sum 9\nh_count 3\n";
        let err = validate(bad).unwrap_err();
        assert!(err.contains("< previous"), "{err}");
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate(no_inf).unwrap_err().contains("+Inf"));
        let wrong_count =
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(validate(wrong_count).unwrap_err().contains("_count"));
    }

    #[test]
    fn identical_state_encodes_byte_identically() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("z").add(3);
            reg.counter("a").inc();
            reg.gauge("g").set(7);
            let h = reg.histogram("h", &Histogram::pow2_edges(4));
            for v in [1, 2, 9, 40] {
                h.observe(v);
            }
            encode(&[Scope::labelled(&[("job", "x"), ("machine", "tm")], &reg)])
        };
        assert_eq!(mk(), mk());
    }

    /// The summary quantile a scrape's own `_bucket` lines of `fam`
    /// imply: the upper edge of the first bucket whose cumulative count
    /// reaches the rank, `NaN` for an empty histogram.
    fn quantile_from_buckets(exp: &Exposition, fam: &str, q: f64) -> f64 {
        let bucket = format!("{fam}_bucket");
        let buckets: Vec<(f64, f64)> = exp
            .samples
            .iter()
            .filter(|s| s.name == bucket)
            .map(|s| (parse_value(&s.labels.last().expect("le").1).unwrap(), s.value))
            .collect();
        let count = buckets.last().expect("+Inf bucket").1;
        if count == 0.0 {
            return f64::NAN;
        }
        let rank = (q * count).ceil().clamp(1.0, count);
        buckets.iter().find(|(_, cum)| *cum >= rank).expect("+Inf reaches every rank").0
    }

    /// A scrape taken while another thread observes must still be a
    /// valid exposition: cumulative buckets, `+Inf` equal to `_count`,
    /// and each summary quantile the one its own buckets imply. `flip`
    /// holds half 1s, a quarter 2s and a quarter overflow, so its p50
    /// moves between the first two edges as observations land: a
    /// quantile read apart from the buckets would disagree with them.
    #[test]
    fn a_scrape_during_observation_is_self_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let reg = Registry::new();
        let h = reg.histogram("h", &Histogram::pow2_edges(6));
        let flip = reg.histogram("flip", &Histogram::pow2_edges(6));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.observe(v % 200);
                    flip.observe([1, 2, 1, 200][v as usize % 4]);
                    v += 1;
                }
            });
            // The observer is running once its first observation shows.
            while h.count() == 0 {
                std::thread::yield_now();
            }
            let before = h.count();
            for _ in 0..1000 {
                let text = encode(&[Scope::labelled(&[("job", "live")], &reg)]);
                let checked = validate(&text).and_then(|_| {
                    let exp = parse_exposition(&text)?;
                    for fam in ["bulk_h", "bulk_flip"] {
                        for q in SUMMARY_QUANTILES {
                            let label = [("job", "live"), ("quantile", &*q.to_string())];
                            let got = exp.value(&format!("{fam}_summary"), &label).unwrap();
                            let want = quantile_from_buckets(&exp, fam, q);
                            if got.to_bits() != want.to_bits() {
                                return Err(format!("{fam} p{q}: summary {got}, buckets {want}"));
                            }
                        }
                    }
                    Ok(())
                });
                if let Err(e) = checked {
                    stop.store(true, Ordering::Relaxed);
                    panic!("mid-run scrape is not self-consistent: {e}\n{text}");
                }
            }
            assert!(h.count() > before, "nothing was observed while scraping");
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn exposition_value_lookup() {
        let reg = Registry::new();
        reg.counter("c").add(9);
        let text = encode(&[Scope::labelled(&[("job", "j")], &reg)]);
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(exp.value("bulk_c", &[("job", "j")]), Some(9.0));
        assert_eq!(exp.value("bulk_c", &[("job", "nope")]), None);
    }
}
