//! Property-based tests for the signature invariants of DESIGN.md §6:
//! superset encoding, intersection/union soundness, δ exactness,
//! RLE round-trip, and word-mask conservatism.
//!
//! Cases are generated by the seeded `bulk_rng::check` harness; a failure
//! prints a `BULK_PROP_SEED` value that replays exactly that case.

use bulk_mem::{Addr, Cache, CacheGeometry, LineAddr};
use bulk_obs::ExpansionObs;
use bulk_rng::check::{run, Gen};
use bulk_rng::{prop_assert, prop_assert_eq};
use bulk_sig::{
    merge_line, table8, table8_spec, BitPermutation, Granularity, Signature, SignatureConfig,
};

/// Any Table 8 spec, line or word granularity, identity or the matching
/// paper permutation.
fn arb_config(g: &mut Gen) -> SignatureConfig {
    let spec = table8()[g.in_range(0..table8().len())];
    let (gran, perm) = if g.bool() {
        (
            Granularity::Word,
            if g.bool() { BitPermutation::paper_tls() } else { BitPermutation::identity() },
        )
    } else {
        (
            Granularity::Line,
            if g.bool() { BitPermutation::paper_tm() } else { BitPermutation::identity() },
        )
    };
    SignatureConfig::from_spec(spec, perm, gran, 64)
}

fn arb_addrs(g: &mut Gen) -> Vec<u32> {
    g.vec_u32(0..120, 0..0x0400_0000)
}

/// Invariant 1: no false negatives, ever.
#[test]
fn superset_encoding() {
    run("superset_encoding", 64, |g| {
        let config = arb_config(g);
        let addrs = arb_addrs(g);
        let mut s = Signature::new(config);
        for &a in &addrs {
            s.insert_addr(Addr::new(a));
        }
        for &a in &addrs {
            prop_assert!(s.contains_addr(Addr::new(a)), "missing {a:#x}");
        }
        prop_assert_eq!(s.is_empty(), addrs.is_empty());
        Ok(())
    });
}

/// Invariant 2: H(A1) ∩ H(A2) covers every address in A1 ∩ A2, and
/// `intersects` is consistent with the materialised intersection.
#[test]
fn intersection_soundness() {
    run("intersection_soundness", 64, |g| {
        let config = arb_config(g);
        let a1 = arb_addrs(g);
        let a2 = arb_addrs(g);
        let shared = config.into_shared();
        let mut s1 = Signature::with_shared(shared.clone());
        let mut s2 = Signature::with_shared(shared);
        for &a in &a1 {
            s1.insert_addr(Addr::new(a));
        }
        for &a in &a2 {
            s2.insert_addr(Addr::new(a));
        }
        let inter = s1.intersect(&s2);
        prop_assert_eq!(s1.intersects(&s2), !inter.is_empty());
        for a in a1.iter().filter(|a| a2.contains(a)) {
            let key1 = s1.config().key_of_addr(Addr::new(*a));
            prop_assert!(inter.contains_key(key1), "shared addr {a:#x} not in intersection");
        }
        Ok(())
    });
}

/// Union covers both operands and is monotone in popcount.
#[test]
fn union_covers_operands() {
    run("union_covers_operands", 64, |g| {
        let config = arb_config(g);
        let a1 = arb_addrs(g);
        let a2 = arb_addrs(g);
        let shared = config.into_shared();
        let mut s1 = Signature::with_shared(shared.clone());
        let mut s2 = Signature::with_shared(shared);
        for &a in &a1 {
            s1.insert_addr(Addr::new(a));
        }
        for &a in &a2 {
            s2.insert_addr(Addr::new(a));
        }
        let u = s1.union(&s2);
        for &a in a1.iter().chain(&a2) {
            prop_assert!(u.contains_addr(Addr::new(a)), "union missing {a:#x}");
        }
        prop_assert!(u.popcount() >= s1.popcount().max(s2.popcount()));
        prop_assert!(u.popcount() <= s1.popcount() + s2.popcount());
        Ok(())
    });
}

/// Invariant 3: δ is exact for the paper's default configurations —
/// the decoded bitmask equals precisely the inserted addresses' sets.
#[test]
fn decode_is_exact_for_defaults() {
    run("decode_is_exact_for_defaults", 64, |g| {
        let word_gran = g.bool();
        let addrs = arb_addrs(g);
        let (config, geom) = if word_gran {
            (SignatureConfig::s14_tls(), CacheGeometry::tls_l1())
        } else {
            (SignatureConfig::s14_tm(), CacheGeometry::tm_l1())
        };
        assert!(config.is_exactly_decodable(&geom), "defaults must be δ-exact");
        let mut s = Signature::new(config);
        let mut expected: Vec<u32> = Vec::new();
        for &a in &addrs {
            s.insert_addr(Addr::new(a));
            let addr = Addr::new(a);
            expected.push(if word_gran {
                geom.set_of_word(addr.word())
            } else {
                geom.set_of_line(addr.line(64))
            });
        }
        expected.sort_unstable();
        expected.dedup();
        let mask = s.decode_sets(&geom);
        prop_assert_eq!(mask.iter_ones().collect::<Vec<_>>(), expected);
        Ok(())
    });
}

/// δ is always a superset of the true sets, for any configuration.
#[test]
fn decode_is_conservative_for_any_config() {
    run("decode_is_conservative_for_any_config", 64, |g| {
        let config = arb_config(g);
        let addrs = arb_addrs(g);
        let geom = CacheGeometry::tm_l1();
        if config.line_bytes() != geom.line_bytes() {
            return Ok(()); // not a meaningful pairing
        }
        let word = config.granularity() == Granularity::Word;
        let mut s = Signature::new(config);
        for &a in &addrs {
            s.insert_addr(Addr::new(a));
        }
        let mask = s.decode_sets(&geom);
        for &a in &addrs {
            let set = if word {
                geom.set_of_word(Addr::new(a).word())
            } else {
                geom.set_of_line(Addr::new(a).line(64))
            };
            prop_assert!(mask.get(set), "set {set} of {a:#x} missing from δ");
        }
        Ok(())
    });
}

/// Invariant 6: RLE round-trips exactly, and the size accessor agrees
/// with the materialised code.
#[test]
fn rle_round_trip() {
    run("rle_round_trip", 64, |g| {
        let config = arb_config(g);
        let addrs = arb_addrs(g);
        let shared = config.into_shared();
        let mut s = Signature::with_shared(shared.clone());
        for &a in &addrs {
            s.insert_addr(Addr::new(a));
        }
        let compressed = s.compress();
        prop_assert_eq!(compressed.size_bits(), s.compressed_size_bits());
        let restored = Signature::decompress(shared, &compressed).expect("valid code");
        prop_assert_eq!(s, restored);
        Ok(())
    });
}

/// Invariant 4 (mask side): the updated-word bitmask covers every word
/// actually written and the merge keeps exactly the masked words.
#[test]
fn word_mask_is_conservative_and_merge_respects_it() {
    run("word_mask_is_conservative_and_merge_respects_it", 64, |g| {
        let line = LineAddr::new(g.in_range(0u32..0x100_0000));
        let written: std::collections::BTreeSet<u32> =
            g.vec_u32(0..16, 0..16).into_iter().collect();
        let mut w = Signature::new(SignatureConfig::s14_tls());
        for &i in &written {
            w.insert_word(line.word(64, i));
        }
        let mask = w.updated_word_bitmask(line);
        for &i in &written {
            prop_assert!(mask.contains(i), "written word {i} not in mask");
        }
        let committed: Vec<u64> = (0..16).map(|i| 1000 + i).collect();
        let local: Vec<u64> = (0..16).map(|i| 2000 + i).collect();
        let merged = merge_line(&committed, &local, mask);
        for i in 0..16u32 {
            let expect = if mask.contains(i) { &local } else { &committed };
            prop_assert_eq!(merged[i as usize], expect[i as usize]);
        }
        Ok(())
    });
}

/// Intersecting with a one-address signature *is* the membership test: a
/// signature has one bit per V-field for the address, and `intersects`
/// asks every field's AND to be non-zero. The par runtime broadcasts a
/// non-transactional store as its address on the strength of this (the
/// paper's individual invalidation, §4.2).
#[test]
fn singleton_intersection_is_membership() {
    let spec = |id: &str| table8_spec(id).expect("catalog id");
    let line = |id: &str| {
        SignatureConfig::from_spec(spec(id), BitPermutation::paper_tm(), Granularity::Line, 64)
    };
    // The defaults, a config whose fields are one block each (the
    // `intersects` fast path) and one with multi-block and sub-word fields.
    let configs =
        [SignatureConfig::s14_tm(), SignatureConfig::s14_tls(), line("S4"), line("S23")]
            .map(SignatureConfig::into_shared);
    let mut hits = [0u32; 2];
    run("singleton_intersection_is_membership", 256, |g| {
        let config = configs[g.in_range(0..configs.len())].clone();
        // A narrow domain, so that probes alias as well as hit and miss.
        let addrs = g.vec_u32(0..300, 0..0x0010_0000);
        let mut r = Signature::with_shared(config.clone());
        addrs.iter().for_each(|&a| r.insert_addr(Addr::new(a)));
        for _ in 0..16 {
            let a = match addrs.len() {
                n if n > 0 && g.bool() => addrs[g.in_range(0..n)],
                _ => g.in_range(0..0x0010_0000u32),
            };
            let mut single = Signature::with_shared(config.clone());
            single.insert_addr(Addr::new(a));
            let member = r.contains_addr(Addr::new(a));
            prop_assert_eq!(single.intersects(&r), member, "addr {a:#x}");
            prop_assert_eq!(r.intersects(&single), member, "addr {a:#x}");
            if config.granularity() == Granularity::Line {
                prop_assert_eq!(r.contains_line(Addr::new(a).line(64)), member);
            }
            hits[usize::from(member)] += 1;
        }
        Ok(())
    });
    assert!(hits.iter().all(|&n| n > 100), "members and non-members: {hits:?}");
}

/// Clearing a signature always yields the empty signature (the paper's
/// one-operation commit).
#[test]
fn clear_is_total() {
    run("clear_is_total", 64, |g| {
        let config = arb_config(g);
        let addrs = arb_addrs(g);
        let mut s = Signature::new(config);
        for &a in &addrs {
            s.insert_addr(Addr::new(a));
        }
        s.clear();
        prop_assert!(s.is_empty());
        prop_assert_eq!(s.popcount(), 0);
        Ok(())
    });
}

/// δ as it was computed before the decode plan: every index bit re-located
/// through `destination_of`, per-field contributions collected, sorted and
/// multiplied out. Kept as the reference the plan-driven decode must equal.
fn reference_decode(s: &Signature, geom: &CacheGeometry) -> Vec<u32> {
    if s.is_empty() {
        return Vec::new();
    }
    let config = s.config();
    // Per index bit: the (field, position) holding it, or `None`.
    let sources: Vec<Option<(usize, u32)>> = config
        .index_bit_range(geom)
        .map(|b| {
            let dest = u32::from(config.permutation().destination_of(b as u8));
            (0..config.num_fields()).find_map(|i| {
                let start = config.chunk_start(i);
                (start..start + config.chunks()[i]).contains(&dest).then_some((i, dest - start))
            })
        })
        .collect();
    let mut partials: Vec<u32> = vec![0];
    let mut fields_done: Vec<usize> = Vec::new();
    for (out_bit, src) in sources.iter().enumerate() {
        let contribs: Vec<u32> = match *src {
            None => vec![0, 1 << out_bit],
            Some((field, _)) if fields_done.contains(&field) => continue,
            Some((field, _)) => {
                fields_done.push(field);
                s.field_values(field)
                    .map(|v| {
                        sources.iter().enumerate().fold(0u32, |acc, (ob, s)| match *s {
                            Some((f, pos)) if f == field => acc | ((v >> pos) & 1) << ob,
                            _ => acc,
                        })
                    })
                    .collect()
            }
        };
        partials = partials.iter().flat_map(|&p| contribs.iter().map(move |&c| p | c)).collect();
        partials.sort_unstable();
        partials.dedup();
    }
    partials
}

/// The plan-driven δ equals the reference for any configuration — index
/// bits in one field (exact), spread over several (cross product), or
/// left uncovered by a random permutation (both values) — and any geometry.
#[test]
fn plan_driven_decode_equals_the_reference() {
    run("plan_driven_decode_equals_the_reference", 128, |g| {
        let mut config = arb_config(g);
        if g.bool() {
            let width = config.granularity().key_bits(64) as u8;
            let fixed_low = g.in_range(0u32..8) as u8;
            config = SignatureConfig::new(
                config.chunks().to_vec(),
                BitPermutation::random(width, fixed_low, g.rng()),
                config.granularity(),
                64,
            );
        }
        let geoms = [
            CacheGeometry::tm_l1(),
            CacheGeometry::tls_l1(),
            CacheGeometry::new(4 * 1024, 1, 64),
        ];
        let first = g.in_range(0..geoms.len());
        let mut s = Signature::new(config);
        for &a in &arb_addrs(g) {
            s.insert_addr(Addr::new(a));
        }
        // The config caches the plan of the first geometry it meets; the
        // others must decode just as well through a throwaway plan.
        for k in 0..geoms.len() {
            let geom = geoms[(first + k) % geoms.len()];
            let mask = s.decode_sets(&geom);
            prop_assert_eq!(mask.iter_ones().collect::<Vec<_>>(), reference_decode(&s, &geom));
            let mut reused = s.decode_sets(&geom);
            reused.set(0);
            s.decode_sets_into(&geom, &mut reused);
            prop_assert_eq!(reused, mask);
        }
        Ok(())
    });
}

/// A signature with some field empty encodes nothing, whatever the other
/// fields hold: δ is empty, as the reference has it.
#[test]
fn decode_of_a_partly_empty_signature_is_empty() {
    run("decode_of_a_partly_empty_signature_is_empty", 64, |g| {
        let shared = arb_config(g).into_shared();
        let mut a = Signature::with_shared(shared.clone());
        let mut b = Signature::with_shared(shared);
        a.insert_addr(Addr::new(g.in_range(0u32..0x0400_0000)));
        b.insert_addr(Addr::new(g.in_range(0u32..0x0400_0000)));
        let inter = a.intersect(&b);
        let geom = CacheGeometry::tm_l1();
        prop_assert_eq!(
            inter.decode_sets(&geom).iter_ones().collect::<Vec<_>>(),
            reference_decode(&inter, &geom)
        );
        Ok(())
    });
}

/// Expansion fed an already decoded δ visits the lines `expand` returns,
/// in the same order, and reports the same counts.
#[test]
fn mask_driven_expansion_equals_expand() {
    run("mask_driven_expansion_equals_expand", 64, |g| {
        let config = arb_config(g);
        let geom = if g.bool() { CacheGeometry::tm_l1() } else { CacheGeometry::tls_l1() };
        let mut cache = Cache::new(geom);
        let mut s = Signature::new(config);
        for &a in &arb_addrs(g) {
            let addr = Addr::new(a);
            if g.bool() {
                s.insert_addr(addr);
            }
            match g.in_range(0u32..3) {
                0 => drop(cache.fill_clean(addr.line(64))),
                1 => drop(cache.fill_dirty(addr.line(64))),
                _ => {}
            }
        }
        let reg = bulk_obs::Registry::new();
        let (by_wrapper, by_mask) = (
            ExpansionObs::register(&reg, "wrapper."),
            ExpansionObs::register(&reg, "mask."),
        );
        let expected = s.expand_observed(&cache, Some(&by_wrapper));
        let mut visited = Vec::new();
        s.expand_sets(&s.decode_sets(&geom), &cache, Some(&by_mask), |e| visited.push(e));
        prop_assert_eq!(&visited, &expected);
        prop_assert_eq!(s.expand(&cache), expected);
        for counter in ["calls", "candidate_sets", "tag_reads", "matched_lines"] {
            prop_assert_eq!(
                reg.counter_value(&format!("mask.expansion.{counter}")),
                reg.counter_value(&format!("wrapper.expansion.{counter}"))
            );
        }
        prop_assert_eq!(
            reg.counter_value("mask.expansion.tag_reads"),
            s.expansion_tag_reads(&cache) as u64
        );
        Ok(())
    });
}

/// The per-word definition of the updated-word bitmask: bit *i* is set when
/// word *i* of `line` may be in `s`.
fn per_word_mask(s: &Signature, line: LineAddr) -> u64 {
    let line_bytes = s.config().line_bytes();
    line.words(line_bytes)
        .enumerate()
        .filter(|&(_, w)| s.contains_word(w))
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

/// The word-grain configs the one-probe line test is checked on, each with
/// the path it must take: `Some(field)` when that C-field holds the word
/// offset bits as its low bits, `None` for the per-word definition.
fn word_group_configs() -> Vec<(String, SignatureConfig, Option<usize>)> {
    let word = |id: &str, perm: BitPermutation, line_bytes: u32| {
        let spec = table8_spec(id).expect("catalog id");
        SignatureConfig::from_spec(spec, perm, Granularity::Word, line_bytes)
    };
    let mut configs = vec![("S14 TLS".to_string(), SignatureConfig::s14_tls(), Some(0))];
    for spec in table8() {
        let name = format!("{} paper_tls", spec.id);
        configs.push((name, word(spec.id, BitPermutation::paper_tls(), 64), Some(0)));
    }
    // 32- and 64-word lines: 32-bit and 64-bit groups.
    configs.push(("S14 128 B".into(), word("S14", BitPermutation::paper_tls(), 128), Some(0)));
    configs.push(("S14 256 B".into(), word("S14", BitPermutation::paper_tls(), 256), Some(0)));
    // The offset bits land at the bottom of C-field 1 instead.
    let to_field_1 = BitPermutation::from_map(vec![4, 5, 6, 7, 8, 0, 1, 2, 3]).expect("perm");
    let shifted = SignatureConfig::new(vec![5, 10, 10], to_field_1, Granularity::Word, 64);
    configs.push(("offset in field 1".into(), shifted, Some(1)));
    // The per-word path: a permutation that moves bit 0, and a first chunk
    // narrower than a line's four offset bits.
    let swap_low = BitPermutation::from_map(vec![1, 0]).expect("perm");
    configs.push(("bit 0 moved".into(), word("S14", swap_low, 64), None));
    let narrow =
        SignatureConfig::new(vec![3, 10, 10], BitPermutation::paper_tls(), Granularity::Word, 64);
    configs.push(("3-bit first chunk".into(), narrow, None));
    configs
}

/// The one-probe line test (`updated_word_bitmask`, and
/// `contains_any_word_of_line` as "that mask is non-empty") equals the
/// per-word definition on random signatures and lines, on both paths.
#[test]
fn word_group_probe_equals_the_per_word_definition() {
    let configs = word_group_configs();
    for (name, config, path) in &configs {
        assert_eq!(config.word_offset_field(), *path, "{name}: path");
    }
    run("word_group_probe_equals_the_per_word_definition", 256, |g| {
        let (name, config, _) = &configs[g.in_range(0..configs.len())];
        let config = std::sync::Arc::new(config.clone());
        let line_bytes = config.line_bytes();
        let words = line_bytes / 4;
        let line_space = 1u32 << (32 - line_bytes.trailing_zeros());
        // A random signature of random density, plus words of probed lines.
        let density = g.in_range(0u32..6);
        let flat: Vec<u64> = (0..config.size_bits().div_ceil(64))
            .map(|_| (0..density).fold(g.u64(), |w, _| w & g.u64()))
            .collect();
        let mut s = Signature::from_flat_bits(config.clone(), &flat);
        let lines: Vec<LineAddr> =
            (0..8).map(|_| LineAddr::new(g.in_range(0..line_space))).collect();
        for &line in &lines[..4] {
            for _ in 0..g.in_range(0u32..4) {
                s.insert_word(line.word(line_bytes, g.in_range(0..words)));
            }
        }
        for &line in &lines {
            let expect = per_word_mask(&s, line);
            prop_assert_eq!(s.updated_word_bitmask(line).bits(), expect, "{name} {line}");
            prop_assert_eq!(s.contains_any_word_of_line(line), expect != 0, "{name} {line}");
        }
        Ok(())
    });
}

/// A line whose every word was written reads back as a full mask, up to
/// 64 words (the mask of a 64-word group is all ones, not an overflow).
#[test]
fn a_fully_written_line_reads_back_every_word() {
    for (name, config, _) in word_group_configs() {
        let line_bytes = config.line_bytes();
        let line = LineAddr::new(0x1234);
        let mut s = Signature::new(config);
        for w in line.words(line_bytes) {
            s.insert_word(w);
        }
        let full = u64::MAX >> (64 - line_bytes / 4);
        assert_eq!(s.updated_word_bitmask(line).bits(), full, "{name}");
        assert_eq!(per_word_mask(&s, line), full, "{name}");
        assert!(s.contains_any_word_of_line(line), "{name}");
    }
}
