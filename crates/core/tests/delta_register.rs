//! `δ(W_v)` is a register of its BDM slot (DESIGN.md §17): after any
//! sequence of BDM operations every in-use slot's cached mask equals a
//! fresh decode of its write signature, and the `δ(W_run)` /
//! `OR(δ(W_pre))` registers equal a rebuild from scratch. A context
//! switch's spill and reload (§6.2.2) is faithful: spilling a reloaded
//! version again gives back the R, W, `W_sh` and O bit that were spilled.
//!
//! Cases are generated by the seeded `bulk_rng::check` harness; a failure
//! prints a `BULK_PROP_SEED` value that replays exactly that case.

use bulk_core::{Bdm, SpilledVersion, VersionId};
use bulk_mem::{Addr, CacheGeometry};
use bulk_rng::check::{run, Gen};
use bulk_rng::prop_assert_eq;
use bulk_sig::{table8_spec, BitPermutation, Granularity, SetBitmask, SignatureConfig};

/// Drives `bdm` through `steps` random operations, calling `check` after
/// each one. Every reload is spilled again, compared with what was
/// spilled, and reloaded into the same slot.
fn random_walk(
    g: &mut Gen,
    bdm: &mut Bdm,
    steps: usize,
    mut check: impl FnMut(&Bdm) -> Result<(), String>,
) -> Result<(), String> {
    let mut live: Vec<VersionId> = Vec::new();
    let mut spilled: Vec<SpilledVersion> = Vec::new();
    for _ in 0..steps {
        // A few hot sets, so versions overlap and addresses repeat.
        let addr = Addr::new(g.in_range(0u32..4) << 20 | g.in_range(0u32..512) << 4);
        let pick = (!live.is_empty()).then(|| g.in_range(0..live.len()));
        match (g.in_range(0u32..12), pick) {
            (0, _) => live.extend(bdm.alloc_version()),
            (1, _) => {
                let v = pick.filter(|_| g.bool()).map(|i| live[i]);
                bdm.set_running(v);
            }
            (2..=4, Some(i)) => bdm.record_store(live[i], addr),
            (5, Some(i)) => bdm.record_load(live[i], addr),
            (6, Some(i)) => drop(bdm.begin_shadow(live[i])),
            (7, Some(i)) => drop(bdm.commit(live[i])),
            (8, Some(i)) => bdm.clear_on_squash(live[i]),
            (9, Some(i)) => spilled.push(bdm.spill_version(live.swap_remove(i))),
            (10, _) => {
                if let Some(s) = spilled.pop() {
                    let kept = s.clone();
                    match bdm.reload_version(s) {
                        Ok(v) => {
                            let again = bdm.spill_version(v);
                            prop_assert_eq!(again.r, kept.r, "R of {v:?}");
                            prop_assert_eq!(again.w, kept.w, "W of {v:?}");
                            prop_assert_eq!(again.w_sh, kept.w_sh, "W_sh of {v:?}");
                            prop_assert_eq!(again.overflowed, kept.overflowed, "O of {v:?}");
                            let back = bdm.reload_version(again).expect("the spill freed a slot");
                            prop_assert_eq!(back, v, "the lowest free slot again");
                            live.push(back);
                        }
                        Err(s) => spilled.push(s),
                    }
                }
            }
            (11, Some(i)) => bdm.free_version(live.swap_remove(i)),
            _ => {}
        }
        check(bdm)?;
    }
    Ok(())
}

fn slots_hold_a_fresh_decode(bdm: &Bdm) -> Result<(), String> {
    for v in bdm.versions_in_use() {
        let fresh = bdm.write_signature(v).decode_sets(&bdm.geometry());
        prop_assert_eq!(bdm.delta_w(v), &fresh, "slot {v:?}");
    }
    Ok(())
}

fn registers_equal_a_rebuild(bdm: &Bdm) -> Result<(), String> {
    let geom = bdm.geometry();
    let mut run_mask = SetBitmask::new(geom.num_sets());
    let mut pre_mask = SetBitmask::new(geom.num_sets());
    for v in bdm.versions_in_use() {
        let fresh = bdm.write_signature(v).decode_sets(&geom);
        if bdm.running() == Some(v) {
            run_mask.or_assign(&fresh);
        } else {
            pre_mask.or_assign(&fresh);
        }
    }
    prop_assert_eq!(bdm.delta_w_run(), &run_mask);
    prop_assert_eq!(bdm.or_delta_w_pre(), &pre_mask);
    Ok(())
}

#[test]
fn cached_delta_follows_every_operation_on_the_paper_configs() {
    run("cached_delta_follows_every_operation_on_the_paper_configs", 96, |g| {
        let mut bdm = if g.bool() {
            Bdm::new(SignatureConfig::s14_tm(), CacheGeometry::tm_l1(), 3)
        } else {
            Bdm::new(SignatureConfig::s14_tls(), CacheGeometry::tls_l1(), 3)
        };
        random_walk(g, &mut bdm, 200, |bdm| {
            slots_hold_a_fresh_decode(bdm)?;
            registers_equal_a_rebuild(bdm)
        })
    });
}

/// S9 under the TM permutation splits the seven index bits over two
/// C-fields: the BDM accepts it (every bit is covered), but δ is a cross
/// product that one store can grow by more than its own set, so the slot
/// re-decodes instead of setting one bit. The two registers follow
/// `record_store` bit by bit as they always did and catch up with the
/// cross product at the next rebuild, so only the slots are checked here.
#[test]
fn cached_delta_follows_every_operation_when_the_index_spans_two_fields() {
    let geom = CacheGeometry::tm_l1();
    let s9 = || {
        SignatureConfig::from_spec(
            table8_spec("S9").expect("catalog id"),
            BitPermutation::paper_tm(),
            Granularity::Line,
            64,
        )
    };
    assert!(s9().is_exactly_decodable(&geom) && !s9().decodes_by_projection(&geom));
    run("cached_delta_follows_every_operation_when_the_index_spans_two_fields", 48, |g| {
        let mut bdm = Bdm::new(s9(), geom, 2);
        random_walk(g, &mut bdm, 120, slots_hold_a_fresh_decode)
    });
}
