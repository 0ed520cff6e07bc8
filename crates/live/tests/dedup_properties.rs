//! Property tests for the receiver-side [`DedupFilter`] under seeded
//! duplicated and reordered `CommitTicket` streams (bulk-rng `check`
//! harness; replay any failing case with `BULK_PROP_SEED=<seed>`).
//!
//! The two properties the model checker's exactly-once proof leans on:
//!
//! * **Insertion-order insensitivity** — however a delivery stream is
//!   interleaved, shuffled, or re-stamped by failover epochs, the set of
//!   admitted tickets, the applications, and the final filter footprint
//!   depend only on the *multiset* of deliveries, and each distinct
//!   `(committer, serial)` is admitted exactly once.
//! * **Memory boundedness** — the filter's footprint is bounded by the
//!   number of distinct tickets, never by the delivery count: an
//!   adversary replaying the same commit a thousand times cannot grow it.
//!
//! And the one that keeps a probe constant-time whatever the serials
//! look like (the sim's failover replay probes it per delivery; the
//! parallel runtime's receivers no longer use a filter at all):
//!
//! * **Representation independence** — the hashed filter answers every
//!   call exactly as two ordered sets of `(committer, serial)` would, for
//!   dense, strided and sparse serials up to `u64::MAX`, with a footprint
//!   that never depends on how large a serial is.

use bulk_live::{Arbiter, CommitTicket, DedupFilter};
use bulk_rng::check::{run, Gen};
use bulk_rng::{prop_assert, prop_assert_eq};
use std::collections::BTreeSet;

/// A seeded delivery stream: distinct tickets, duplicated (possibly under
/// re-stamped epochs, as failover replays are) and then reordered.
fn delivery_stream(g: &mut Gen) -> (Vec<CommitTicket>, usize) {
    let committers = g.in_range(1usize..5);
    let serials = g.in_range(1u64..6);
    let mut arbiter = Arbiter::new(committers, 120);
    let mut stream = Vec::new();
    let mut distinct = 0usize;
    for c in 0..committers {
        for s in 0..serials {
            distinct += 1;
            stream.push(arbiter.ticket(c, s));
            // Each ticket is re-delivered 0..4 extra times; a coin flip
            // decides whether a re-delivery is a failover replay (epoch
            // re-stamped after a crash) or a plain interconnect duplicate.
            for _ in 0..g.in_range(0usize..4) {
                if g.bool() {
                    arbiter.fail_over();
                }
                stream.push(arbiter.ticket(c, s));
            }
        }
    }
    // Fisher–Yates reorder: deliveries arrive in adversarial order.
    for i in (1..stream.len()).rev() {
        let j = g.in_range(0usize..i + 1);
        stream.swap(i, j);
    }
    (stream, distinct)
}

fn feed(stream: &[CommitTicket]) -> (DedupFilter, u64) {
    let mut filter = DedupFilter::new();
    let mut admitted = 0u64;
    for &t in stream {
        if filter.admit(t) {
            filter.record_application(t);
            admitted += 1;
        }
    }
    (filter, admitted)
}

#[test]
fn admission_is_insensitive_to_delivery_order() {
    run("dedup_order_insensitive", 128, |g| {
        let (stream, distinct) = delivery_stream(g);
        let (filter, admitted) = feed(&stream);
        // Every distinct ticket admitted exactly once, regardless of the
        // interleaving; everything else dropped.
        prop_assert_eq!(admitted, distinct as u64);
        prop_assert_eq!(filter.applications(), distinct as u64);
        prop_assert_eq!(filter.drops(), (stream.len() - distinct) as u64);
        prop_assert_eq!(filter.duplicate_applications(), 0);

        // A second, differently-ordered pass over the same multiset lands
        // in exactly the same final state.
        let mut reordered = stream.clone();
        reordered.reverse();
        let (refilter, readmitted) = feed(&reordered);
        prop_assert_eq!(readmitted, admitted);
        prop_assert_eq!(refilter.applications(), filter.applications());
        prop_assert_eq!(refilter.drops(), filter.drops());
        prop_assert_eq!(refilter.tracked(), filter.tracked());
        Ok(())
    });
}

#[test]
fn filter_memory_is_bounded_by_distinct_tickets_not_deliveries() {
    run("dedup_memory_bounded", 128, |g| {
        let (stream, distinct) = delivery_stream(g);
        let (filter, _) = feed(&stream);
        prop_assert_eq!(filter.tracked(), distinct);
        prop_assert!(
            filter.tracked() <= stream.len(),
            "footprint {} exceeds deliveries {}",
            filter.tracked(),
            stream.len()
        );
        Ok(())
    });
}

#[test]
fn replay_storm_on_one_ticket_never_grows_the_filter() {
    run("dedup_replay_storm", 64, |g| {
        let mut arbiter = Arbiter::new(4, 120);
        let mut filter = DedupFilter::new();
        let first = arbiter.ticket(0, 0);
        prop_assert!(filter.admit(first));
        prop_assert!(!filter.record_application(first));
        let storms = g.in_range(1usize..1000);
        for _ in 0..storms {
            arbiter.fail_over();
            prop_assert!(!filter.admit(arbiter.ticket(0, 0)));
        }
        prop_assert_eq!(filter.tracked(), 1);
        prop_assert_eq!(filter.drops(), storms as u64);
        prop_assert_eq!(filter.duplicate_applications(), 0);
        Ok(())
    });
}

/// The filter as it was first written: one ordered set per fact.
#[derive(Default)]
struct ReferenceFilter {
    admitted: BTreeSet<(usize, u64)>,
    applied: BTreeSet<(usize, u64)>,
    drops: u64,
    duplicate_applications: u64,
}

impl ReferenceFilter {
    fn admit(&mut self, t: CommitTicket) -> bool {
        let fresh = self.admitted.insert((t.committer, t.serial));
        self.drops += u64::from(!fresh);
        fresh
    }

    fn record_application(&mut self, t: CommitTicket) -> bool {
        let duplicate = !self.applied.insert((t.committer, t.serial));
        self.duplicate_applications += u64::from(duplicate);
        duplicate
    }

    fn tracked(&self) -> usize {
        self.admitted.union(&self.applied).count()
    }
}

/// The serials one committer stamps, in the shapes the runtimes produce:
/// a TM worker counts up from 0, TLS worker `c` of `W` commits tasks `c`,
/// `c + W`, …, and nothing stops a serial from being any `u64`.
fn serials(g: &mut Gen, committer: usize, committers: usize) -> Vec<u64> {
    let n = g.in_range(1u64..40);
    match g.in_range(0u32..3) {
        0 => (0..n).collect(),
        1 => (0..n).map(|i| committer as u64 + i * committers as u64).collect(),
        _ => {
            let mut sparse: Vec<u64> = (0..n).map(|_| g.u64()).collect();
            sparse.extend([0, u64::MAX, u64::MAX - committer as u64]);
            sparse
        }
    }
}

#[test]
fn hashed_filter_answers_like_the_ordered_set_model() {
    run("dedup_matches_reference", 128, |g| {
        let committers = g.in_range(1usize..6);
        let mut arbiter = Arbiter::new(committers, 120);
        let mut stream = Vec::new();
        for c in 0..committers {
            for s in serials(g, c, committers) {
                // 1..4 deliveries each, some re-stamped by a failover.
                for _ in 0..g.in_range(1usize..4) {
                    if g.bool() {
                        arbiter.fail_over();
                    }
                    stream.push(arbiter.ticket(c, s));
                }
            }
        }
        for i in (1..stream.len()).rev() {
            let j = g.in_range(0usize..i + 1);
            stream.swap(i, j);
        }

        let (mut filter, mut model) = (DedupFilter::new(), ReferenceFilter::default());
        for &t in &stream {
            let admitted = filter.admit(t);
            prop_assert_eq!(admitted, model.admit(t), "admit({t:?})");
            // Apply what was admitted — and, now and then, what was not:
            // the bug `duplicate_applications` exists to expose.
            if admitted || g.in_range(0u32..8) == 0 {
                prop_assert_eq!(
                    filter.record_application(t),
                    model.record_application(t),
                    "record_application({t:?})"
                );
            }
            prop_assert_eq!(filter.tracked(), model.tracked());
        }
        prop_assert_eq!(filter.drops(), model.drops);
        prop_assert_eq!(filter.applications(), model.applied.len() as u64);
        prop_assert_eq!(filter.duplicate_applications(), model.duplicate_applications);
        // The footprint is the distinct tickets — `u64::MAX` was among the
        // serials of every sparse committer, and cost one entry.
        prop_assert!(filter.tracked() <= stream.len());
        Ok(())
    });
}

#[test]
fn an_application_without_admission_is_tracked_once() {
    let t = |serial| CommitTicket { epoch: 0, committer: 3, serial };
    let mut f = DedupFilter::new();
    assert!(!f.record_application(t(u64::MAX)));
    assert_eq!((f.tracked(), f.applications()), (1, 1));
    assert!(f.admit(t(u64::MAX)), "never admitted before");
    assert_eq!((f.tracked(), f.drops()), (1, 0));
    assert!(f.admit(t(0)));
    assert_eq!((f.tracked(), f.applications()), (2, 1));
}
