//! The traced run: per-layer metrics, timed through the `bulk_repro`
//! facade with the benchmark's own span around every call into a layer,
//! and each layer's share of the workload's time.
//!
//! `*_ns` metrics are medians of batched timings over inputs harvested
//! from the real `sjbb2k` and `crafty` traces, not random bits. Counts
//! (`trace.ops`, `sig.rle_bytes`, `*.sim_cycles.*`, …) repeat exactly for
//! a seed; the ones that describe simulated behaviour are read from the
//! program's own `--metrics-out` JSON.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bulk_repro::bulk::{flows, Bdm};
use bulk_repro::mem::{Addr, Cache, CacheGeometry, LineAddr, OverflowArea};
use bulk_repro::obs::prometheus::{encode, Scope};
use bulk_repro::obs::Obs;
use bulk_repro::par::{ParConfig, ParRuntime, RunDetail, Runtime};
use bulk_repro::sig::{SealedSignature, Signature, SignatureConfig};
use bulk_repro::sim::{EventQueue, SimConfig};
use bulk_repro::tls::{run_tls, run_tls_observed, TlsMachine, TlsScheme};
use bulk_repro::tm::{run_tm, run_tm_observed, Scheme, TmMachine};
use bulk_repro::trace::jobspec::JobSpec;
use bulk_repro::trace::{profiles, TlsOp, TlsWorkload, TmOp, TmWorkload};

use crate::cli_loads::{self, SEED_DELTAS};
use crate::par_load::{tls_workload, tm_workload};
use crate::report::json_number;
use crate::run::{Metric, RunData};
use crate::serve::{self, Daemon};
use crate::span::{self, Tracer};
use crate::spec::{replay, Machine, Spec};
use crate::stats::{median, Better};
use crate::{sys, Outcome, Site};

use Better::{Higher, Lower};

/// Name, unit and better direction of every per-layer metric, in the order
/// a traced run prints them. `BENCHMARK.json` repeats this table; a unit
/// test keeps the two in step, and a traced run fails if it leaves one
/// out. Counts have no better direction of their own; they are listed as
/// "lower" (less work for the same result).
pub const PER_LAYER: [(&str, &str, Better); 71] = [
    ("trace_overhead_ratio", "ratio", Lower),
    ("share.trace", "ratio", Lower),
    ("share.machine", "ratio", Higher),
    ("share.obs", "ratio", Lower),
    ("share.par", "ratio", Higher),
    ("share.bulkd", "ratio", Lower),
    ("share.cli", "ratio", Lower),
    ("trace.gen_ns_per_op", "ns", Lower),
    ("trace.ops", "count", Lower),
    ("trace.jobspec_parse_ns", "ns", Lower),
    ("mem.cache_load_ns", "ns", Lower),
    ("mem.cache_store_ns", "ns", Lower),
    ("mem.cache_hit_ratio", "ratio", Higher),
    ("mem.overflow_lookup_ns", "ns", Lower),
    ("sig.insert_ns", "ns", Lower),
    ("sig.contains_ns", "ns", Lower),
    ("sig.intersects_ns", "ns", Lower),
    ("sig.union_ns", "ns", Lower),
    ("sig.decode_sets_ns", "ns", Lower),
    ("sig.expand_ns", "ns", Lower),
    ("sig.expand_tag_reads", "count", Lower),
    ("sig.rle_compress_ns", "ns", Lower),
    ("sig.rle_decompress_ns", "ns", Lower),
    ("sig.rle_bytes", "count", Lower),
    ("sig.seal_verify_ns", "ns", Lower),
    ("core.record_ns", "ns", Lower),
    ("core.disambiguate_ns", "ns", Lower),
    ("core.commit_ns", "ns", Lower),
    ("core.apply_remote_commit_ns", "ns", Lower),
    ("core.squash_ns", "ns", Lower),
    ("sim.queue_push_pop_ns.d8", "ns", Lower),
    ("sim.queue_push_pop_ns.d64", "ns", Lower),
    ("tm.run_ns_per_commit.bulk", "ns", Lower),
    ("tm.run_ns_per_commit.lazy", "ns", Lower),
    ("tm.run_ns_per_commit.eager", "ns", Lower),
    ("tls.run_ns_per_task.bulk", "ns", Lower),
    ("tls.run_ns_per_task.lazy", "ns", Lower),
    ("tls.run_ns_per_task.eager", "ns", Lower),
    ("tm.sim_cycles.bulk", "count", Lower),
    ("tm.squash_ratio", "ratio", Lower),
    ("tls.sim_cycles.bulk", "count", Lower),
    ("tls.squash_ratio", "ratio", Lower),
    ("core.false_positive_ratio", "ratio", Lower),
    ("tm.scaling_exponent", "log10", Lower),
    ("tls.scaling_exponent", "log10", Lower),
    ("obs.metrics_overhead_ratio", "ratio", Lower),
    ("obs.events_overhead_ratio", "ratio", Lower),
    ("obs.trace_overhead_ratio", "ratio", Lower),
    ("chaos.audit_overhead_ratio", "ratio", Lower),
    ("chaos.audit_checks", "count", Lower),
    ("obs.events_emitted", "count", Lower),
    ("obs.spans_emitted", "count", Lower),
    ("obs.events_jsonl_ns_per_event", "ns", Lower),
    ("obs.trace_export_ns_per_span", "ns", Lower),
    ("obs.metrics_json_ns", "ns", Lower),
    ("obs.prometheus_encode_ns", "ns", Lower),
    ("par.tm_ns_per_commit", "ns", Lower),
    ("par.tls_ns_per_commit", "ns", Lower),
    ("par.claim_retries", "count", Lower),
    ("par.squash_ratio", "ratio", Lower),
    ("par.scaling_1_to_w", "ratio", Higher),
    ("bulkd.scrape_ms_at_0_jobs", "ms", Lower),
    ("bulkd.accept_ms", "ms", Lower),
    ("bulkd.stream_bytes_per_s", "B/s", Higher),
    ("bulkd.overhead_ratio", "ratio", Lower),
    ("bulkd.rss_kb_per_job", "kB", Lower),
    ("bulkd.scrape_ms_at_400_jobs", "ms", Lower),
    ("bulkd.scrape_bytes_at_400_jobs", "count", Lower),
    ("bulkd.status_ms", "ms", Lower),
    ("cli.startup_ms", "ms", Lower),
    ("cli.report_ms", "ms", Lower),
];

/// The layers a workload's time is split over, in the order of the
/// `share.*` metrics. `machine` is `tm` plus `tls` and everything they
/// call (`sig`, `core`, `mem`, `sim`, `chaos`, `live`): spans inside the
/// program are a later change.
pub const SHARE_LAYERS: [&str; 6] = ["trace", "machine", "obs", "par", "bulkd", "cli"];

/// Jobs the daemon's table is filled with before the "full table" numbers.
const TABLE_JOBS: usize = 400;

/// Collects per-layer metrics; every timing runs inside a span of its
/// layer.
struct Suite<'a> {
    tracer: &'a mut Tracer,
    data: &'a mut RunData,
    out: Vec<Metric>,
}

impl Suite<'_> {
    /// Records a metric. A value that is not a finite number (a ratio
    /// over nothing) is a failed operation and is reported as zero, so the
    /// result line stays valid JSON.
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        let Some(&(name, unit, _)) = PER_LAYER.iter().find(|(n, _, _)| *n == name) else {
            return self.check(name, Err("metric is not declared in PER_LAYER".to_string()));
        };
        if !value.is_finite() {
            self.check(name, Err(format!("measured {value}")));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.out.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Every declared metric must have been measured.
    fn check_complete(&mut self) {
        for (name, _, _) in PER_LAYER {
            let emitted = self.out.iter().filter(|m| m.name == name).count();
            self.check(
                name,
                (emitted == 1)
                    .then_some(())
                    .ok_or(format!("emitted {emitted} times")),
            );
        }
    }

    /// Runs `f` `batches` times; each call handles `items` items. Reports
    /// the median nanoseconds per item.
    fn time(
        &mut self,
        layer: &'static str,
        name: &str,
        items: usize,
        batches: usize,
        mut f: impl FnMut(),
    ) {
        self.time_prepared(layer, name, items, batches, || (), |()| f());
    }

    /// Like [`Suite::time`], with untimed per-batch preparation.
    fn time_prepared<S>(
        &mut self,
        layer: &'static str,
        name: &str,
        items: usize,
        batches: usize,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(S),
    ) {
        let per_item = self.tracer.span(layer, name, |_| {
            let samples: Vec<f64> = (0..batches)
                .map(|_| {
                    let state = prepare();
                    let start = Instant::now();
                    f(state);
                    start.elapsed().as_nanos() as f64 / items.max(1) as f64
                })
                .collect();
            median(&samples)
        });
        self.put(name, per_item, batches);
    }

    /// Counts one check of the suite's own as an operation.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.data.attempted += 1;
        if let Err(why) = result {
            self.data.fail(format!("{what}: {why}"));
        }
    }
}

/// Median seconds of `runs` calls.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Read and write addresses of one transaction or task.
#[derive(Default)]
struct AccessSet {
    reads: Vec<Addr>,
    writes: Vec<Addr>,
}

/// The access sets of every outermost transaction of a TM trace and every
/// task of a TLS trace.
fn harvest(tm: &TmWorkload, tls: &TlsWorkload) -> Vec<AccessSet> {
    let mut sets = Vec::new();
    for thread in &tm.threads {
        let mut depth = 0usize;
        let mut cur = AccessSet::default();
        for op in &thread.ops {
            match op {
                TmOp::Begin => depth += 1,
                TmOp::End => {
                    depth -= 1;
                    if depth == 0 {
                        sets.push(std::mem::take(&mut cur));
                    }
                }
                TmOp::Read(a) if depth > 0 => cur.reads.push(*a),
                TmOp::Write(a) if depth > 0 => cur.writes.push(*a),
                _ => {}
            }
        }
    }
    for task in &tls.tasks {
        let mut cur = AccessSet::default();
        for op in &task.ops {
            match op {
                TlsOp::Read(a) => cur.reads.push(*a),
                TlsOp::Write(a) => cur.writes.push(*a),
                _ => {}
            }
        }
        sets.push(cur);
    }
    sets
}

fn trace_layer(s: &mut Suite, seed: u64) -> (TmWorkload, TlsWorkload) {
    let tm_p = profiles::tm_profile("sjbb2k").expect("catalog app");
    let tls_p = profiles::tls_profile("crafty").expect("catalog app");
    let (tm, tls) = (tm_p.generate(seed), tls_p.generate(seed));
    let ops = tm.threads.iter().map(|t| t.ops.len()).sum::<usize>()
        + tls.tasks.iter().map(|t| t.ops.len()).sum::<usize>();
    s.time("trace", "trace.gen_ns_per_op", ops, 9, || {
        black_box((
            tm_p.generate(black_box(seed)),
            tls_p.generate(black_box(seed)),
        ));
    });
    s.put("trace.ops", ops as f64, 1);
    let line = Spec::sim(Machine::Tls, "crafty", "bulk-no-overlap", seed, Some(400)).job_line();
    s.time("trace", "trace.jobspec_parse_ns", 1000, 9, || {
        for _ in 0..1000 {
            black_box(JobSpec::parse(black_box(&line)).expect("valid spec"));
        }
    });
    (tm, tls)
}

fn sig_layer(s: &mut Suite, sets: &[AccessSet], cache: &Cache) {
    let cfg = SignatureConfig::s14_tm().into_shared();
    let geom = CacheGeometry::tm_l1();
    let build = |addrs: &[Addr]| {
        let mut sig = Signature::with_shared(cfg.clone());
        for a in addrs {
            sig.insert_addr(*a);
        }
        sig
    };
    let reads: Vec<Signature> = sets.iter().map(|x| build(&x.reads)).collect();
    let writes: Vec<Signature> = sets.iter().map(|x| build(&x.writes)).collect();
    let n = sets.len();
    let accesses: usize = sets.iter().map(|x| x.reads.len() + x.writes.len()).sum();
    let write_count: usize = sets.iter().map(|x| x.writes.len()).sum();

    let mut scratch = Signature::with_shared(cfg.clone());
    s.time("sig", "sig.insert_ns", accesses, 15, || {
        for x in sets {
            scratch.clear();
            for a in x.reads.iter().chain(&x.writes) {
                scratch.insert_addr(black_box(*a));
            }
        }
        black_box(&scratch);
    });
    s.time("sig", "sig.contains_ns", write_count, 15, || {
        for (i, x) in sets.iter().enumerate() {
            let r = &reads[(i + 1) % n];
            for a in &x.writes {
                black_box(r.contains_addr(black_box(*a)));
            }
        }
    });
    s.time("sig", "sig.intersects_ns", n * 4, 15, || {
        for (i, w) in writes.iter().enumerate() {
            for d in 1..=4 {
                black_box(w.intersects(black_box(&reads[(i + d) % n])));
            }
        }
    });
    s.time("sig", "sig.union_ns", n, 15, || {
        scratch.clear();
        for w in &writes {
            scratch.union_assign(black_box(w));
        }
        black_box(&scratch);
    });
    s.time("sig", "sig.decode_sets_ns", n, 15, || {
        for w in &writes {
            black_box(w.decode_sets(&geom));
        }
    });
    s.time("sig", "sig.expand_ns", n, 9, || {
        for w in &writes {
            black_box(w.expand(black_box(cache)));
        }
    });
    let tag_reads: usize = writes.iter().map(|w| w.expansion_tag_reads(cache)).sum();
    s.put("sig.expand_tag_reads", tag_reads as f64, n);
    s.time("sig", "sig.rle_compress_ns", n, 9, || {
        for w in &writes {
            black_box(w.compress());
        }
    });
    let codes: Vec<_> = writes.iter().map(Signature::compress).collect();
    s.time("sig", "sig.rle_decompress_ns", n, 9, || {
        for c in &codes {
            black_box(Signature::decompress(cfg.clone(), black_box(c)).expect("own code decodes"));
        }
    });
    s.put(
        "sig.rle_bytes",
        codes.iter().map(|c| c.size_bytes()).sum::<u64>() as f64,
        n,
    );
    s.time_prepared(
        "sig",
        "sig.seal_verify_ns",
        n,
        9,
        || writes.clone(),
        |owned| {
            for w in owned {
                black_box(SealedSignature::seal(w).verify());
            }
        },
    );
    let round_trip = codes.iter().zip(&writes).all(|(c, w)| {
        Signature::decompress(cfg.clone(), c).is_some_and(|d| d.flat_bits() == w.flat_bits())
    });
    s.check(
        "sig rle round trip",
        round_trip
            .then_some(())
            .ok_or("decompress(compress(w)) != w".to_string()),
    );
}

/// Replays the harvested accesses through one L1; returns the warm cache.
fn mem_layer(s: &mut Suite, sets: &[AccessSet]) -> Cache {
    let geom = CacheGeometry::tm_l1();
    let lb = geom.line_bytes();
    let reads: Vec<LineAddr> = sets
        .iter()
        .flat_map(|x| x.reads.iter().map(|a| a.line(lb)))
        .collect();
    let writes: Vec<LineAddr> = sets
        .iter()
        .flat_map(|x| x.writes.iter().map(|a| a.line(lb)))
        .collect();
    s.time_prepared(
        "mem",
        "mem.cache_load_ns",
        reads.len(),
        15,
        || Cache::new(geom),
        |mut c| {
            for l in &reads {
                black_box(c.load(black_box(*l)));
            }
        },
    );
    s.time_prepared(
        "mem",
        "mem.cache_store_ns",
        writes.len(),
        15,
        || Cache::new(geom),
        |mut c| {
            for l in &writes {
                black_box(c.store(black_box(*l)));
            }
        },
    );
    let mut cache = Cache::new(geom);
    let hits = reads.iter().filter(|l| cache.load(**l).0).count();
    s.put(
        "mem.cache_hit_ratio",
        hits as f64 / reads.len() as f64,
        reads.len(),
    );
    let mut area = OverflowArea::new();
    for l in &writes {
        area.spill(*l);
    }
    s.time("mem", "mem.overflow_lookup_ns", reads.len(), 15, || {
        for l in &reads {
            black_box(area.lookup(black_box(*l)));
        }
    });
    cache
}

fn core_layer(s: &mut Suite, sets: &[AccessSet], warm: &Cache) {
    let cfg = SignatureConfig::s14_tm().into_shared();
    let geom = CacheGeometry::tm_l1();
    let n = sets.len();
    let accesses: usize = sets.iter().map(|x| x.reads.len() + x.writes.len()).sum();
    let record = |bdm: &mut Bdm, x: &AccessSet| {
        let v = bdm.alloc_version().expect("a free slot");
        for a in &x.reads {
            bdm.record_load(v, *a);
        }
        for a in &x.writes {
            bdm.record_store(v, *a);
        }
        v
    };
    let mut bdm = Bdm::new_shared(cfg.clone(), geom, 1);
    s.time("core", "core.record_ns", accesses, 15, || {
        for x in sets {
            let v = record(&mut bdm, black_box(x));
            bdm.clear_version(v);
            bdm.free_version(v);
        }
    });
    // One BDM per set, each holding that set as its running version.
    let recorded = || -> Vec<_> {
        sets.iter()
            .map(|x| {
                let mut b = Bdm::new_shared(cfg.clone(), geom, 1);
                let v = record(&mut b, x);
                (b, v)
            })
            .collect()
    };
    let holders = recorded();
    let commits: Vec<Signature> = holders
        .iter()
        .map(|(b, v)| b.write_signature(*v).clone())
        .collect();
    s.time("core", "core.disambiguate_ns", n * 4, 15, || {
        for (i, (b, v)) in holders.iter().enumerate() {
            for d in 1..=4 {
                black_box(b.disambiguate(*v, black_box(&commits[(i + d) % n])));
            }
        }
    });
    s.time_prepared("core", "core.commit_ns", n, 9, recorded, |state| {
        for (mut b, v) in state {
            black_box(b.commit(v));
        }
    });
    s.time_prepared(
        "core",
        "core.apply_remote_commit_ns",
        n,
        9,
        || warm.clone(),
        |mut cache| {
            for (i, (b, _)) in holders.iter().enumerate() {
                black_box(flows::apply_remote_commit(
                    b,
                    black_box(&commits[(i + 1) % n]),
                    &mut cache,
                ));
            }
        },
    );
    s.time_prepared(
        "core",
        "core.squash_ns",
        n,
        9,
        || (recorded(), warm.clone()),
        |(state, mut cache)| {
            for (mut b, v) in state {
                black_box(flows::squash(&mut b, v, &mut cache, false));
            }
        },
    );
}

fn sim_layer(s: &mut Suite) {
    for depth in [8u64, 64] {
        let mut q = EventQueue::new();
        for t in 0..depth {
            q.push(t * 7, t as u32);
        }
        s.time(
            "sim",
            &format!("sim.queue_push_pop_ns.d{depth}"),
            100_000,
            9,
            || {
                for i in 0..100_000u64 {
                    let (t, e) = q.pop().expect("never drained");
                    q.push(t + 1 + (i * 2654435761) % (depth * 7), black_box(e));
                }
            },
        );
    }
}

/// The program's own counters for one default-length sim run, from its
/// `--metrics-out` JSON.
fn program_metrics(s: &mut Suite, site: &Site, spec: Spec) -> String {
    let spec = Spec {
        outs: vec!["metrics"],
        ..spec
    };
    let args = spec.cli_args(&site.work, 99);
    let done = s.tracer.span("cli", &spec.label(), |_| {
        sys::run_to_completion(&site.bulk, &args, &site.work.join("stderr.txt"))
    });
    let ok = done.as_ref().is_ok_and(|d| d.usage.exit_code == Some(0));
    s.check(
        &spec.label(),
        ok.then_some(())
            .ok_or("--metrics-out run failed".to_string()),
    );
    std::fs::read_to_string(spec.out_path(&site.work, 99, "metrics")).unwrap_or_default()
}

fn machine_layers(s: &mut Suite, site: &Site, seed: u64, tm: &TmWorkload, tls: &TlsWorkload) {
    let (tm_cfg, tls_cfg) = (SimConfig::tm_default(), SimConfig::tls_default());
    let tm_commits: usize =
        profiles::tm_profile("sjbb2k").map_or(1, |p| p.threads * p.txs_per_thread);
    for (name, scheme) in [
        ("bulk", Scheme::Bulk),
        ("lazy", Scheme::Lazy),
        ("eager", Scheme::Eager),
    ] {
        s.time(
            "tm",
            &format!("tm.run_ns_per_commit.{name}"),
            tm_commits,
            5,
            || {
                black_box(run_tm(tm, scheme, &tm_cfg));
            },
        );
    }
    for (name, scheme) in [
        ("bulk", TlsScheme::Bulk),
        ("lazy", TlsScheme::Lazy),
        ("eager", TlsScheme::Eager),
    ] {
        s.time(
            "tls",
            &format!("tls.run_ns_per_task.{name}"),
            tls.tasks.len(),
            5,
            || {
                black_box(run_tls(tls, scheme, &tls_cfg));
            },
        );
    }
    // Simulated behaviour, from the program's own counters.
    let tm_json = program_metrics(
        s,
        site,
        Spec::sim(Machine::Tm, "sjbb2k", "bulk", seed, None),
    );
    let tls_json = program_metrics(
        s,
        site,
        Spec::sim(Machine::Tls, "crafty", "bulk", seed, None),
    );
    let count = |text: &str, name: &str| json_number(text, name).unwrap_or(f64::NAN);
    for (m, text) in [("tm", &tm_json), ("tls", &tls_json)] {
        s.put(
            &format!("{m}.sim_cycles.bulk"),
            count(text, &format!("{m}.cycles.total")),
            1,
        );
        let (commits, squashes) = (
            count(text, &format!("{m}.commits")),
            count(text, &format!("{m}.squashes")),
        );
        s.put(
            &format!("{m}.squash_ratio"),
            squashes / (commits + squashes),
            1,
        );
    }
    let verdict = |kind: &str| {
        count(&tm_json, &format!("tm.verdict.{kind}"))
            + count(&tls_json, &format!("tls.verdict.{kind}"))
    };
    let (fp, tp) = (verdict("false_positive"), verdict("true_positive"));
    s.put(
        "core.false_positive_ratio",
        fp / (fp + tp),
        (fp + tp) as usize,
    );
    // Host time at ten times the length over host time at the base
    // length, as a power of ten: 1.0 is linear.
    let tm_long = tm_workload("sjbb2k", 8, 8 * 600, seed);
    let tm_base = median_secs(5, || drop(black_box(run_tm(tm, Scheme::Bulk, &tm_cfg))));
    let tm_ten = s.tracer.span("tm", "tm.scaling_exponent", |_| {
        median_secs(2, || {
            drop(black_box(run_tm(&tm_long, Scheme::Bulk, &tm_cfg)))
        })
    });
    s.put("tm.scaling_exponent", (tm_ten / tm_base).log10(), 2);
    let (tls_short, tls_long) = (
        tls_workload("crafty", 120, seed),
        tls_workload("crafty", 1200, seed),
    );
    let tls_base = median_secs(5, || {
        drop(black_box(run_tls(&tls_short, TlsScheme::Bulk, &tls_cfg)))
    });
    let tls_ten = s.tracer.span("tls", "tls.scaling_exponent", |_| {
        median_secs(2, || {
            drop(black_box(run_tls(&tls_long, TlsScheme::Bulk, &tls_cfg)))
        })
    });
    s.put("tls.scaling_exponent", (tls_ten / tls_base).log10(), 2);
}

fn obs_layers(s: &mut Suite, tm: &TmWorkload, tls: &TlsWorkload) {
    let (tm_cfg, tls_cfg) = (SimConfig::tm_default(), SimConfig::tls_default());
    let observed = || {
        let (a, b) = (Arc::new(Obs::new()), Arc::new(Obs::new()));
        black_box(run_tm_observed(tm, Scheme::Bulk, &tm_cfg, Arc::clone(&a)));
        black_box(run_tls_observed(
            tls,
            TlsScheme::Bulk,
            &tls_cfg,
            Arc::clone(&b),
        ));
        (a, b)
    };
    let plain = s.tracer.span("tm", "plain run (tm+tls)", |_| {
        median_secs(5, || {
            black_box(run_tm(tm, Scheme::Bulk, &tm_cfg));
            black_box(run_tls(tls, TlsScheme::Bulk, &tls_cfg));
        })
    });
    // The CLI attaches one bundle whichever artifact is asked for; the
    // artifacts differ in what is serialised afterwards.
    type Export = fn(&Obs) -> usize;
    let exports: [(&str, Export); 3] = [
        ("metrics", |o| o.registry().to_json_indented("  ").len()),
        ("events", |o| o.events().to_jsonl().len()),
        ("trace", |o| o.trace().to_chrome_json().len()),
    ];
    for (kind, export) in exports {
        let with = s.tracer.span("obs", kind, |_| {
            median_secs(3, || {
                let (a, b) = observed();
                black_box(export(&a) + export(&b));
            })
        });
        s.put(&format!("obs.{kind}_overhead_ratio"), with / plain, 3);
    }
    let mut checks = 0;
    let audited = s.tracer.span("chaos", "audited run (tm+tls)", |_| {
        median_secs(3, || {
            let mut m = TmMachine::new(tm, Scheme::Bulk, &tm_cfg);
            m.enable_audit();
            let mut t = TlsMachine::new(tls, TlsScheme::Bulk, &tls_cfg);
            t.enable_audit();
            checks = m.run().audit_checks + t.run().audit_checks;
        })
    });
    s.put("chaos.audit_overhead_ratio", audited / plain, 3);
    s.put("chaos.audit_checks", checks as f64, 1);

    let (a, b) = observed();
    let (events, spans) = (
        a.events().len() + b.events().len(),
        a.trace().len() + b.trace().len(),
    );
    s.put("obs.events_emitted", events as f64, 1);
    s.put("obs.spans_emitted", spans as f64, 1);
    s.time("obs", "obs.events_jsonl_ns_per_event", events, 9, || {
        black_box((a.events().to_jsonl(), b.events().to_jsonl()));
    });
    s.time("obs", "obs.trace_export_ns_per_span", spans, 5, || {
        black_box((a.trace().to_chrome_json(), b.trace().to_chrome_json()));
    });
    s.time("obs", "obs.metrics_json_ns", 2, 15, || {
        black_box((a.registry().to_json(), b.registry().to_json()));
    });
    s.time("obs", "obs.prometheus_encode_ns", 2, 15, || {
        let scopes = [
            Scope::labelled(&[("job", "job-1"), ("machine", "tm")], a.registry()),
            Scope::labelled(&[("job", "job-2"), ("machine", "tls")], b.registry()),
        ];
        black_box(encode(&scopes));
    });
}

fn par_layer(s: &mut Suite, seed: u64) {
    let w = sys::workers();
    let (tm_cfg, tls_cfg) = (SimConfig::tm_default(), SimConfig::tls_default());
    let rt = |workers| {
        ParRuntime::new(ParConfig {
            tls_workers: workers,
            seed,
            ..ParConfig::default()
        })
    };
    let (tm_commits, tls_tasks) = (8_000, 12_000);
    let tls = tls_workload("crafty", tls_tasks, seed);
    // (wall seconds, squashes, claim retries) of one run each.
    let run = |s: &mut Suite, workers: usize| {
        let tm = tm_workload("sjbb2k", workers, tm_commits, seed);
        let start = Instant::now();
        let a = s.tracer.span("par", "run_tm", |_| {
            rt(workers).run_tm(&tm, Scheme::Bulk, &tm_cfg)
        });
        let tm_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let b = s.tracer.span("par", "run_tls", |_| {
            rt(workers).run_tls(&tls, TlsScheme::Bulk, &tls_cfg)
        });
        let tls_s = start.elapsed().as_secs_f64();
        let mut squashes = 0;
        let mut retries = 0;
        for r in [a, b] {
            match r {
                Ok(r) => {
                    squashes += r.squashes;
                    if let RunDetail::Par(p) = &r.detail {
                        retries += p.claim_retries;
                    }
                    s.check(
                        "par run",
                        r.violations
                            .is_empty()
                            .then_some(())
                            .ok_or("violations".to_string()),
                    );
                }
                Err(e) => s.check("par run", Err(e.to_string())),
            }
        }
        (tm_s, tls_s, squashes, retries)
    };
    let at_w: Vec<_> = (0..3).map(|_| run(s, w)).collect();
    let at_1 = run(s, 1);
    let med = |f: fn(&(f64, f64, u64, u64)) -> f64| median(&at_w.iter().map(f).collect::<Vec<_>>());
    let (tm_s, tls_s) = (med(|r| r.0), med(|r| r.1));
    s.put("par.tm_ns_per_commit", tm_s * 1e9 / tm_commits as f64, 3);
    s.put("par.tls_ns_per_commit", tls_s * 1e9 / tls_tasks as f64, 3);
    s.put("par.claim_retries", med(|r| r.3 as f64), 3);
    let total = (tm_commits + tls_tasks) as f64;
    s.put(
        "par.squash_ratio",
        med(|r| r.2 as f64) / (total + med(|r| r.2 as f64)),
        3,
    );
    // Commits per second with W workers over commits per second with one.
    s.put("par.scaling_1_to_w", (at_1.0 + at_1.1) / (tm_s + tls_s), 3);
}

fn bulkd_layer(s: &mut Suite, site: &Site, seed: u64) {
    let daemon = match Daemon::start(&site.bulk, &site.work, sys::workers()) {
        Ok(d) => d,
        Err(e) => return s.check("bulkd start", Err(e.to_string())),
    };
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    // Five scrapes of a quiet daemon; the first is also validated.
    let scrapes = |s: &mut Suite, name: &str| {
        let mut took = Vec::new();
        let mut bytes = 0;
        for i in 0..5 {
            match s
                .tracer
                .span("bulkd", name, |_| serve::scrape(&daemon.http, i == 0))
            {
                Ok((t, b)) => {
                    took.push(ms(t));
                    bytes = b;
                }
                Err(why) => s.check(name, Err(why)),
            }
        }
        s.put(name, median(&took), took.len());
        bytes
    };
    scrapes(s, "bulkd.scrape_ms_at_0_jobs");
    // The same specs over the wire and in-process, one at a time.
    let (mut accept, mut wire_s, mut local_s, mut bytes, mut stream_s) =
        (Vec::new(), 0.0, 0.0, 0usize, 0.0);
    for job in serve::job_list(seed, 16) {
        match s
            .tracer
            .span("bulkd", "submit", |_| serve::submit(&daemon.ingest, &job))
        {
            Ok(sub) => {
                accept.push(ms(sub.accept));
                wire_s += sub.total.as_secs_f64();
                if !job.par {
                    bytes += sub.bytes;
                    stream_s += (sub.total - sub.accept).as_secs_f64();
                }
            }
            Err(why) => s.check("bulkd submit", Err(why)),
        }
        let start = Instant::now();
        let local = replay(&job, true, s.tracer);
        local_s += start.elapsed().as_secs_f64();
        s.check("in-process replay", local.map(|_| ()));
    }
    s.put("bulkd.accept_ms", median(&accept), accept.len());
    s.put("bulkd.stream_bytes_per_s", bytes as f64 / stream_s, 12);
    s.put("bulkd.overhead_ratio", wire_s / local_s, 16);
    // Fill the table with identical small jobs, so its size and the
    // exposition's byte count are the same on every run.
    let small = vec![Spec::sim(Machine::Tm, "sjbb2k", "bulk", seed, Some(2)); TABLE_JOBS];
    let before = daemon.status_kb("VmRSS");
    let seen = std::sync::Mutex::new(BTreeMap::new());
    let fill = s.tracer.span("bulkd", "fill table", |t| {
        serve::drain(&daemon, &small, sys::workers(), 0, &seen, t)
    });
    let after = daemon.status_kb("VmRSS");
    for why in fill.failures {
        s.check("bulkd fill", Err(why));
    }
    s.put(
        "bulkd.rss_kb_per_job",
        (after - before) / TABLE_JOBS as f64,
        TABLE_JOBS,
    );
    let body_bytes = scrapes(s, &format!("bulkd.scrape_ms_at_{TABLE_JOBS}_jobs"));
    s.put(
        &format!("bulkd.scrape_bytes_at_{TABLE_JOBS}_jobs"),
        body_bytes as f64,
        1,
    );
    let mut status = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let reply = s
            .tracer
            .span("bulkd", "status", |_| daemon.control("status"));
        status.push(ms(start.elapsed()));
        let listed = reply.as_ref().map_or(0, |r| r.matches("\"job\":").count());
        s.check(
            "bulkd status",
            (listed == TABLE_JOBS + 16)
                .then_some(())
                .ok_or(format!("{listed} jobs listed")),
        );
    }
    s.put("bulkd.status_ms", median(&status), status.len());
    let stopped = daemon.stop();
    s.check("bulkd stop", stopped.map(|_| ()).map_err(|e| e.to_string()));
}

fn cli_layer(s: &mut Suite, site: &Site, seed: u64) {
    let spawn = |s: &mut Suite, args: &[String]| {
        let done = s.tracer.span("cli", &args.join(" "), |_| {
            sys::run_to_completion(&site.bulk, args, &site.work.join("stderr.txt"))
        });
        match done {
            Ok(d) if d.usage.exit_code == Some(0) => d.wall.as_secs_f64() * 1e3,
            other => {
                s.check("cli spawn", Err(format!("{other:?}")));
                f64::NAN
            }
        }
    };
    let help: Vec<f64> = (0..21).map(|_| spawn(s, &["help".to_string()])).collect();
    s.put("cli.startup_ms", median(&help), help.len());
    // What a spawn costs beyond generating and running the same spec.
    let mut extra = Vec::new();
    for spec in [
        Spec::sim(Machine::Tm, "sjbb2k", "bulk", seed, None),
        Spec::sim(Machine::Tls, "crafty", "bulk", seed, None),
    ] {
        for _ in 0..5 {
            let wall = spawn(s, &spec.cli_args(&site.work, 0));
            let start = Instant::now();
            let local = replay(&spec, false, s.tracer);
            extra.push(wall - start.elapsed().as_secs_f64() * 1e3);
            s.check("in-process replay", local.map(|_| ()));
        }
    }
    s.put("cli.report_ms", median(&extra), extra.len());
}

/// The workload's specs for one pass, for the in-process replay.
fn pass_specs(name: &str, seed: u64, site: &Site) -> Vec<Spec> {
    match name {
        "serve" => serve::job_list(seed, serve::JOBS_PER_PASS),
        "par-cpu" => Vec::new(),
        _ => cli_loads::plan(name, seed, &site.work).map_or_else(Vec::new, |p| {
            p[0].iter().map(|op| op.spec.clone()).collect()
        }),
    }
}

/// Traced and untraced passes of the workload in turn, then its specs
/// replayed in-process: each layer's share of the traced passes' time, and
/// what tracing costs.
fn workload_shares(s: &mut Suite, name: &'static str, seed: u64, seconds: f64, site: &Site) {
    let mut load = crate::load_for(name, seed, site);
    let mut off = Tracer::new(false, s.tracer.epoch());
    s.tracer.span("harness", "setup", |t| load.setup(s.data, t));
    let first = s.tracer.spans().len();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while k < 1 || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side goes first.
        for on in [k % 2 == 0, k % 2 != 0] {
            if on {
                traced.push(
                    s.tracer
                        .span("harness", "pass", |t| load.pass(k, s.data, t))
                        .wall_s,
                );
            } else {
                untraced.push(load.pass(k, s.data, &mut off).wall_s);
            }
        }
        k += 1;
    }
    s.put(
        "trace_overhead_ratio",
        median(&traced) / median(&untraced),
        traced.len(),
    );

    let pass_spans = &s.tracer.spans()[first..];
    let op_layer = match name {
        "serve" => "bulkd",
        "par-cpu" => "par",
        _ => "cli",
    };
    // Time inside the operations of one traced pass, on average.
    let op_ns = pass_spans
        .iter()
        .filter(|sp| sp.layer == op_layer)
        .map(span::Span::duration_ns)
        .sum::<u64>() as f64
        / traced.len() as f64;
    // The same operations in-process, once, with a span per layer.
    let mut inside = Tracer::new(true, s.tracer.epoch());
    for spec in pass_specs(name, seed, site) {
        let result = replay(&spec, name == "serve", &mut inside);
        s.check("in-process replay", result.map(|_| ()));
    }
    let by_layer = span::layer_self_times(inside.spans());
    let layer_ns = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64;
    let mut shares = BTreeMap::from([
        ("trace", layer_ns("trace") / op_ns),
        ("machine", (layer_ns("tm") + layer_ns("tls")) / op_ns),
        ("obs", layer_ns("obs") / op_ns),
        (
            "par",
            if name == "par-cpu" {
                1.0
            } else {
                layer_ns("par") / op_ns
            },
        ),
    ]);
    // Whatever the operation took beyond the work replayed in-process is
    // the front end's own: process start-up and reporting, or the daemon.
    let rest = (1.0 - shares.values().sum::<f64>()).max(0.0);
    shares.insert("cli", if op_layer == "cli" { rest } else { 0.0 });
    shares.insert("bulkd", if op_layer == "bulkd" { rest } else { 0.0 });
    for layer in SHARE_LAYERS {
        s.put(&format!("share.{layer}"), shares[layer], traced.len());
    }
    s.tracer.merge(inside);
}

/// Runs `name` traced: layer shares for the workload, then the per-layer
/// suite. Spans go to `spans-<workload>.jsonl` in the scratch directory.
pub fn run_traced(name: &'static str, seed: u64, seconds: f64, site: &Site) -> Outcome {
    let mut tracer = Tracer::new(true, Instant::now());
    let mut data = RunData::default();
    let mut s = Suite {
        tracer: &mut tracer,
        data: &mut data,
        out: Vec::new(),
    };
    let trace_seed = seed ^ SEED_DELTAS[0];

    workload_shares(&mut s, name, seed, seconds / 3.0, site);
    let (tm, tls) = trace_layer(&mut s, trace_seed);
    let sets = harvest(&tm, &tls);
    let warm = mem_layer(&mut s, &sets);
    sig_layer(&mut s, &sets, &warm);
    core_layer(&mut s, &sets, &warm);
    sim_layer(&mut s);
    machine_layers(&mut s, site, trace_seed, &tm, &tls);
    obs_layers(&mut s, &tm, &tls);
    par_layer(&mut s, trace_seed);
    bulkd_layer(&mut s, site, seed);
    cli_layer(&mut s, site, trace_seed);

    s.check_complete();
    let metrics = s.out;
    let path = site.reports.join(format!("spans-{name}.jsonl"));
    if let Err(e) = std::fs::write(&path, span::to_jsonl(tracer.spans(), name)) {
        eprintln!("warning: spans not written to {}: {e}", path.display());
    }
    Outcome {
        workload: name,
        data,
        metrics,
        tail: 50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_takes_outermost_transactions_and_tasks() {
        let tm = tm_workload("sjbb2k", 2, 10, 1);
        let tls = tls_workload("crafty", 7, 1);
        let sets = harvest(&tm, &tls);
        assert_eq!(sets.len(), 10 + 7);
        assert!(sets.iter().all(|x| !x.reads.is_empty()));
    }

    #[test]
    fn benchmark_json_lists_the_same_per_layer_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("a per_layer list");
        assert_eq!(listed.matches("{\"name\"").count(), PER_LAYER.len());
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(listed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = json
            .split("\"end_to_end\"")
            .next()
            .expect("a workloads list");
        for (name, why) in crate::WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(workloads.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
