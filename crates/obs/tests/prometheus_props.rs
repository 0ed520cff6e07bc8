//! Property tests for the Prometheus text-exposition encoder
//! (`bulk_obs::prometheus`): escaping round-trips, grammar-valid
//! sanitized names, monotone cumulative buckets, byte-identical
//! encodes for identical registry state, and byte-identical encodes to
//! the per-line reference encoder the one-pass `encode` replaced.

use bulk_obs::metrics::{Histogram, Registry};
use std::collections::BTreeMap;

use bulk_obs::prometheus::{
    encode, escape_label_value, parse_exposition, sanitize_label_name, sanitize_metric_name,
    unescape_label_value, validate, Scope, NAMESPACE, SUMMARY_QUANTILES,
};
use bulk_rng::check::{run, Gen};
use bulk_rng::{prop_assert, prop_assert_eq};

/// An arbitrary string over a alphabet rich in escaping hazards.
fn hazard_string(g: &mut Gen) -> String {
    let alphabet: Vec<char> =
        "ab9_:.-{}\"\\\n \t=,#µ".chars().collect();
    g.vec_of(0..24, |g| alphabet[g.in_range(0..alphabet.len())])
        .into_iter()
        .collect()
}

#[test]
fn prop_label_escape_round_trips() {
    run("prometheus_label_escape_round_trips", 256, |g| {
        let raw = hazard_string(g);
        let escaped = escape_label_value(&raw);
        // The escaped form never contains a bare quote or newline, so it
        // can sit inside `label="…"` on one exposition line.
        prop_assert!(!escaped.contains('\n'), "escaped value has raw newline: {escaped:?}");
        let mut prev_backslash = false;
        for c in escaped.chars() {
            prop_assert!(!(c == '"' && !prev_backslash), "unescaped quote in {escaped:?}");
            prev_backslash = c == '\\' && !prev_backslash;
        }
        let back = unescape_label_value(&escaped)
            .map_err(|e| format!("escape({raw:?}) did not unescape: {e}"))?;
        prop_assert_eq!(back, raw);
        Ok(())
    });
}

#[test]
fn prop_sanitized_names_match_the_grammar() {
    run("prometheus_sanitized_names_match_grammar", 256, |g| {
        let raw = hazard_string(g);
        let name = sanitize_metric_name(&raw);
        prop_assert!(!name.is_empty());
        for (i, c) in name.chars().enumerate() {
            let ok = c.is_ascii_alphabetic()
                || c == '_'
                || c == ':'
                || (i > 0 && c.is_ascii_digit());
            prop_assert!(ok, "sanitize_metric_name({raw:?}) -> {name:?}: bad char {c:?}");
        }
        let label = sanitize_label_name(&raw);
        for (i, c) in label.chars().enumerate() {
            let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
            prop_assert!(ok, "sanitize_label_name({raw:?}) -> {label:?}: bad char {c:?}");
        }
        Ok(())
    });
}

/// Fills a registry with a random but deterministic-by-seed shape.
fn arbitrary_registry(g: &mut Gen) -> Registry {
    let reg = Registry::new();
    for i in 0..g.in_range(0usize..4) {
        reg.counter(&format!("c{i}.{}", g.in_range(0u64..3))).add(g.in_range(0u64..1000));
    }
    for i in 0..g.in_range(0usize..3) {
        reg.gauge(&format!("g{i}")).set(g.in_range(0u64..1000));
    }
    for i in 0..g.in_range(0usize..3) {
        let h = reg.histogram(&format!("h{i}"), &Histogram::pow2_edges(g.in_range(1u32..8)));
        for _ in 0..g.in_range(0usize..40) {
            h.observe(g.in_range(0u64..1 << 9));
        }
    }
    reg
}

#[test]
fn prop_histogram_buckets_encode_cumulative_monotone() {
    run("prometheus_buckets_cumulative_monotone", 128, |g| {
        let reg = arbitrary_registry(g);
        let job = hazard_string(g);
        let text = encode(&[Scope::labelled(&[("job", &job), ("machine", "tm")], &reg)]);
        // The strict validator checks the grammar, bucket monotonicity
        // and +Inf == _count for every histogram series.
        validate(&text).map_err(|e| format!("invalid exposition: {e}\n{text}"))?;
        // And the parsed label value round-trips the raw job name.
        let exp = parse_exposition(&text).map_err(|e| e.to_string())?;
        for s in &exp.samples {
            if let Some((_, v)) = s.labels.iter().find(|(k, _)| k == "job") {
                prop_assert_eq!(v.as_str(), job.as_str());
            }
        }
        Ok(())
    });
}

#[test]
fn prop_identical_registry_state_encodes_byte_identically() {
    run("prometheus_identical_state_identical_bytes", 64, |g| {
        let seed = g.u64();
        let mk = || {
            let mut g2 = Gen::from_seed(seed);
            let reg = arbitrary_registry(&mut g2);
            let job = hazard_string(&mut g2);
            encode(&[
                Scope::unlabelled(&reg),
                Scope::labelled(&[("job", &job)], &reg),
            ])
        };
        prop_assert_eq!(mk(), mk());
        Ok(())
    });
}

/// The encoder as it was before it rendered in one pass: a label block,
/// a `format!` and a key per sample line, and a quantile read of its own
/// per summary sample. Kept as the reference `encode` must match byte
/// for byte on a registry no other thread is writing.
mod reference {
    use super::*;

    fn render_value(v: f64) -> String {
        if v.is_nan() {
            "NaN".to_string()
        } else if v == f64::INFINITY {
            "+Inf".to_string()
        } else if v == f64::NEG_INFINITY {
            "-Inf".to_string()
        } else {
            format!("{v}")
        }
    }

    fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
        let mut pairs: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
            .collect();
        if let Some((k, v)) = extra {
            pairs.push(format!("{k}=\"{}\"", escape_label_value(&v)));
        }
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    }

    struct Family {
        kind: &'static str,
        lines: Vec<String>,
    }

    fn push_line(
        families: &mut BTreeMap<String, Family>,
        name: &str,
        kind: &'static str,
        line: String,
    ) {
        let fam = families
            .entry(name.to_string())
            .or_insert_with(|| Family { kind, lines: Vec::new() });
        if fam.kind == kind {
            fam.lines.push(line);
        }
    }

    pub fn encode(scopes: &[Scope<'_>]) -> String {
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for scope in scopes {
            let base_labels = &scope.labels;
            for (name, value) in scope.registry.counters() {
                let fam = format!("{NAMESPACE}{}", sanitize_metric_name(&name));
                let line = format!("{fam}{} {value}", label_block(base_labels, None));
                push_line(&mut families, &fam, "counter", line);
            }
            for (name, value) in scope.registry.gauges() {
                let fam = format!("{NAMESPACE}{}", sanitize_metric_name(&name));
                let line = format!("{fam}{} {value}", label_block(base_labels, None));
                push_line(&mut families, &fam, "gauge", line);
            }
            for (name, h) in scope.registry.histograms() {
                let fam = format!("{NAMESPACE}{}", sanitize_metric_name(&name));
                let mut cum = 0u64;
                let mut lines = Vec::new();
                for (edge, n) in h.edges().iter().zip(h.snapshot().bucket_counts()) {
                    cum += n;
                    lines.push(format!(
                        "{fam}_bucket{} {cum}",
                        label_block(base_labels, Some(("le", edge.to_string())))
                    ));
                }
                let count = cum + h.snapshot().overflow_count();
                lines.push(format!(
                    "{fam}_bucket{} {count}",
                    label_block(base_labels, Some(("le", "+Inf".to_string())))
                ));
                lines.push(format!("{fam}_sum{} {}", label_block(base_labels, None), h.sum()));
                lines.push(format!("{fam}_count{} {count}", label_block(base_labels, None)));
                for line in lines {
                    push_line(&mut families, &fam, "histogram", line);
                }
                let sfam = format!("{fam}_summary");
                for q in SUMMARY_QUANTILES {
                    let v = h.quantile(q).unwrap_or(f64::NAN);
                    let line = format!(
                        "{sfam}{} {}",
                        label_block(base_labels, Some(("quantile", render_value(q)))),
                        render_value(v)
                    );
                    push_line(&mut families, &sfam, "summary", line);
                }
                let sum_line = format!("{sfam}_sum{} {}", label_block(base_labels, None), h.sum());
                push_line(&mut families, &sfam, "summary", sum_line);
                let count_line = format!("{sfam}_count{} {count}", label_block(base_labels, None));
                push_line(&mut families, &sfam, "summary", count_line);
            }
        }
        let mut out = String::new();
        for (name, fam) in &families {
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            for line in &fam.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// A metric name from pieces that collide once sanitized (`a.b`, `a-b`
/// and `a_b` are one family), lead with a digit, fall outside the
/// grammar, or end in a suffix another metric's family uses.
fn clashing_name(g: &mut Gen) -> String {
    const PIECES: [&str; 10] = ["a", "b", "9", ".", "_", "-", ":", "µ", "_summary", "_bucket"];
    g.vec_of(0..4, |g| PIECES[g.in_range(0..PIECES.len())]).concat()
}

/// A registry whose counters, gauges and histograms draw from the same
/// few names, so the scopes of a scrape disagree about their types.
/// Histograms may be empty or overflow their last edge; a name's edges
/// follow from the name, as a registry requires.
fn clashing_registry(g: &mut Gen) -> Registry {
    let reg = Registry::new();
    for _ in 0..g.in_range(0usize..4) {
        let value = if g.in_range(0u32..8) == 0 { u64::MAX } else { g.in_range(0u64..1000) };
        reg.counter(&clashing_name(g)).add(value);
    }
    for _ in 0..g.in_range(0usize..3) {
        reg.gauge(&clashing_name(g)).set(g.in_range(0u64..1000));
    }
    for _ in 0..g.in_range(0usize..3) {
        let name = clashing_name(g);
        let h = reg.histogram(&name, &Histogram::pow2_edges(name.len() as u32 % 7));
        for _ in 0..g.in_range(0usize..30) {
            h.observe(g.in_range(0u64..1 << 8));
        }
    }
    reg
}

#[test]
fn prop_encode_matches_the_reference_encoder_byte_for_byte() {
    run("prometheus_encode_matches_reference", 256, |g| {
        const KEYS: [&str; 7] = ["job", "machine", "scheme", "runtime", "9x", "a:b-c", ""];
        let regs = g.vec_of(1..5, clashing_registry);
        let labels: Vec<Vec<(String, String)>> = regs
            .iter()
            .map(|_| {
                g.vec_of(0..5, |g| (KEYS[g.in_range(0..KEYS.len())].to_string(), hazard_string(g)))
            })
            .collect();
        let scopes: Vec<Scope<'_>> = regs
            .iter()
            .zip(&labels)
            .map(|(registry, labels)| Scope { labels: labels.clone(), registry })
            .collect();
        let (got, want) = (encode(&scopes), reference::encode(&scopes));
        prop_assert!(got == want, "encode differs from the reference:\n{got}\n---\n{want}");
        Ok(())
    });
}
