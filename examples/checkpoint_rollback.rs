//! Checkpointed execution — the paper's third usage context (§1):
//! "Checkpointed multiprocessors provide primitives to enable aggressive
//! thread speculation". The BDM's version slots hold one R/W signature
//! pair per checkpoint, so taking a checkpoint is allocating a slot and
//! rolling back is one bulk invalidation — no cache modifications, no
//! version IDs in the tags.
//!
//! The scenario: a processor speculates past a long-latency event (say, a
//! possible page fault), buffering its post-checkpoint stores in the
//! cache. If the event resolves badly, the checkpoint rolls back; if it
//! resolves well, the checkpoint commits by clearing a signature.
//!
//! Run with `cargo run --example checkpoint_rollback`.

use bulk_repro::bulk::{flows, Bdm};
use bulk_repro::mem::{Addr, Cache, CacheGeometry, LineState};
use bulk_repro::sig::SignatureConfig;

fn main() {
    let geom = CacheGeometry::tm_l1();
    let mut bdm = Bdm::new(SignatureConfig::s14_tm(), geom, 4);
    let mut cache = Cache::new(geom);

    // Architectural (pre-speculation) state: two dirty lines.
    cache.fill_dirty(Addr::new(0x10_0040).line(64));
    cache.fill_dirty(Addr::new(0x10_4040).line(64));
    println!("before speculation: {} resident lines", cache.len());

    // --- Checkpoint 1: speculate past the event. ---
    let ck1 = bdm.alloc_version().expect("free checkpoint slot");
    bdm.set_running(Some(ck1));
    for i in 0..6u32 {
        let a = Addr::new(0x20_0000 + i * 0x40);
        // The Set Restriction check would write back non-speculative dirty
        // lines sharing the set; our addresses use fresh sets here.
        cache.fill_dirty(a.line(64));
        bdm.record_store(ck1, a);
    }
    println!(
        "checkpoint 1 buffered {} speculative lines (sets {:?})",
        6,
        bdm.delta_w(ck1).iter_ones().collect::<Vec<_>>()
    );

    // --- Checkpoint 2 on top (nested speculation), e.g. a second branch. ---
    let ck2 = bdm.alloc_version().expect("free checkpoint slot");
    bdm.set_running(Some(ck2));
    for i in 0..3u32 {
        // Different cache sets than checkpoint 1's lines: the Set
        // Restriction (§4.3) requires dirty lines of different versions to
        // live in different sets, which is exactly what makes the rollback
        // below safe.
        let a = Addr::new(0x30_0200 + i * 0x40);
        cache.fill_dirty(a.line(64));
        bdm.record_store(ck2, a);
    }
    println!("checkpoint 2 buffered 3 more speculative lines");

    // The event of checkpoint 2 resolves BADLY: roll it back.
    let inv = flows::squash(&mut bdm, ck2, &mut cache, false);
    bdm.free_version(ck2);
    println!(
        "rollback of checkpoint 2 discarded {} lines in one bulk invalidation",
        inv.dirty_invalidated.len()
    );

    // Checkpoint 1 resolves WELL: commit = clear one register.
    bdm.set_running(Some(ck1));
    let sigs = bdm.commit(ck1);
    bdm.free_version(ck1);
    println!(
        "commit of checkpoint 1: cleared its signatures (broadcast would be {} compressed bits)",
        sigs.w.compressed_size_bits()
    );

    // Checkpoint 1's lines survive as architectural dirty state;
    // checkpoint 2's are gone; the original lines were never touched.
    assert_eq!(cache.state_of(Addr::new(0x20_0000).line(64)), Some(LineState::Dirty));
    assert_eq!(cache.state_of(Addr::new(0x30_0200).line(64)), None);
    assert_eq!(cache.state_of(Addr::new(0x10_0040).line(64)), Some(LineState::Dirty));
    println!("final: {} resident lines, architectural state intact", cache.len());
}
