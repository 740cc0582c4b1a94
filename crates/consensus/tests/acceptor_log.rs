//! Property tests for the acceptor's durable log: a crashed-and-restarted
//! acceptor (snapshot → recover) is indistinguishable from one that never
//! crashed, and in particular never forgets an accepted vote; and its
//! bundled ballot-0 phase 2b leaves exactly when the whole transaction is
//! Ready there.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use mdbs_consensus::{Acceptor, Ballot, PaxosMsg, Vote};
use mdbs_histories::{GlobalTxnId, SiteId};

const COORDS: [u32; 2] = [1_000_000, 1_000_001];

fn vote_of(v: u32) -> Vote {
    if v == 0 {
        Vote::Ready
    } else {
        Vote::Abort
    }
}

/// Nonempty participant set over sites 0..3, from a 3-bit mask.
fn sites_of(mask: u32) -> BTreeSet<SiteId> {
    (0..3)
        .filter(|b| mask & (1 << b) != 0)
        .map(SiteId)
        .collect()
}

/// An arbitrary acceptor-bound message over a small id space (so sequences
/// actually collide on the same instances).
fn arb_msg() -> impl Strategy<Value = PaxosMsg> {
    let ballot = (0u32..3, 0usize..2).prop_map(|(number, c)| Ballot {
        number,
        node: COORDS[c],
    });
    prop_oneof![
        (1u32..5, 0usize..2, 1u32..8).prop_map(|(g, c, mask)| PaxosMsg::Begin {
            gtxn: GlobalTxnId(g),
            coord: COORDS[c],
            participants: sites_of(mask),
        }),
        (1u32..5, 0u32..3, 0usize..2, 0u32..2).prop_map(|(g, s, c, v)| PaxosMsg::Vote2a {
            gtxn: GlobalTxnId(g),
            site: SiteId(s),
            coord: COORDS[c],
            vote: vote_of(v),
        }),
        ballot
            .clone()
            .prop_map(|ballot| PaxosMsg::Prepare1a { ballot }),
        (ballot, 1u32..5, 1u32..8, 0u32..8).prop_map(|(ballot, g, mask, v)| {
            PaxosMsg::Propose2a {
                ballot,
                gtxn: GlobalTxnId(g),
                votes: sites_of(mask)
                    .into_iter()
                    .map(|site| (site, vote_of((v >> site.0) & 1)))
                    .collect(),
            }
        }),
        (1u32..5).prop_map(|g| PaxosMsg::Clear {
            gtxn: GlobalTxnId(g)
        }),
        (1u32..16, 1u32..5, 0usize..2, 1u32..8).prop_map(|(cleared, g, c, mask)| {
            PaxosMsg::ClearThenBegin {
                cleared: (1..5)
                    .filter(|b| cleared & (1 << (b - 1)) != 0)
                    .map(GlobalTxnId)
                    .collect(),
                gtxn: GlobalTxnId(g),
                coord: COORDS[c],
                participants: sites_of(mask),
            }
        }),
    ]
}

proptest! {
    /// Snapshot/recover is lossless at every point in an arbitrary message
    /// history: the recovered acceptor equals the live one, state for state.
    #[test]
    fn snapshot_recovery_round_trips_any_history(
        msgs in proptest::collection::vec(arb_msg(), 0..60),
        crash_at in 0usize..61,
    ) {
        let mut acc = Acceptor::new(3_000_000);
        for (i, msg) in msgs.into_iter().enumerate() {
            acc.handle(msg);
            if i + 1 == crash_at {
                let recovered = Acceptor::recover(&acc.snapshot());
                prop_assert_eq!(recovered.as_ref(), Some(&acc));
            }
        }
        let recovered = Acceptor::recover(&acc.snapshot());
        prop_assert_eq!(recovered, Some(acc));
    }

    /// The safety property behind failover: once an acceptor accepts a
    /// vote, a crash and restart never erases it — the recovered acceptor
    /// still reports it and still carries it in its phase-1b promise.
    #[test]
    fn a_restarted_acceptor_never_forgets_an_accepted_vote(
        prefix in proptest::collection::vec(arb_msg(), 0..40),
        g in 1u32..5,
        s in 0u32..3,
        suffix in proptest::collection::vec(arb_msg(), 0..20),
    ) {
        let (gtxn, site) = (GlobalTxnId(g), SiteId(s));
        let mut acc = Acceptor::new(3_000_000);
        for msg in prefix {
            acc.handle(msg);
        }
        // Force an acceptance for (gtxn, site) on the fast path.
        acc.handle(PaxosMsg::Begin {
            gtxn,
            coord: COORDS[0],
            participants: BTreeSet::from([site]),
        });
        acc.handle(PaxosMsg::Vote2a {
            gtxn,
            site,
            coord: COORDS[0],
            vote: Vote::Ready,
        });
        let accepted_at_crash = acc.accepted_vote(gtxn, site);
        // The fast path may be fenced by a Prepare1a in the prefix, in
        // which case nothing was accepted and the property is vacuous.
        prop_assume!(accepted_at_crash.is_some());

        // Crash, restart, and keep serving (suffix may re-propose at
        // higher ballots or clear OTHER transactions — never this one).
        let mut rec = Acceptor::recover(&acc.snapshot()).expect("snapshot must recover");
        prop_assert_eq!(rec.accepted_vote(gtxn, site), accepted_at_crash);
        for msg in suffix {
            let compacts = match &msg {
                PaxosMsg::Clear { gtxn: cg } => *cg == gtxn,
                PaxosMsg::ClearThenBegin { cleared, .. } => cleared.contains(&gtxn),
                _ => false,
            };
            if compacts {
                continue; // a compaction legitimately drops the instance
            }
            rec.handle(msg);
        }
        let now = rec.accepted_vote(gtxn, site);
        prop_assert!(now.is_some(), "accepted vote vanished without a compaction");

        // And the promise it hands a new leader must carry the instance.
        let high = Ballot { number: 1_000, node: COORDS[1] };
        let replies = rec.handle(PaxosMsg::Prepare1a { ballot: high });
        let carried = replies.iter().any(|(_, m)| match m {
            PaxosMsg::Promise1b { accepted, .. } => {
                accepted.iter().any(|v| v.gtxn == gtxn && v.site == site)
            }
            _ => false,
        });
        prop_assert!(carried, "promise omitted a surviving accepted vote");
    }

    /// The bundled ballot-0 phase 2b: whatever the order of registrations,
    /// votes, duplicates, promises, proposals and compactions, an acceptor
    /// sends a ballot-0 `Accepted` for a transaction exactly when, after
    /// the message, every registered participant's instance holds an
    /// unfenced ballot-0 Ready there — and then to the registered
    /// coordinator. Only a registration and `Vote2a` can complete a
    /// bundle, and an Abort vote or a fenced instance never sends one.
    #[test]
    fn a_ballot_zero_accepted_leaves_only_when_every_participant_is_ready(
        msgs in proptest::collection::vec(arb_msg(), 0..80),
    ) {
        let mut acc = Acceptor::new(3_000_000);
        // First registration wins; a compaction drops it.
        let mut registered: BTreeMap<GlobalTxnId, (u32, BTreeSet<SiteId>)> = BTreeMap::new();
        for msg in msgs {
            let completes = match &msg {
                PaxosMsg::Begin { gtxn, coord, participants } => {
                    registered.entry(*gtxn).or_insert((*coord, participants.clone()));
                    Some(*gtxn)
                }
                // A vote on a fenced instance answers nothing at all.
                PaxosMsg::Vote2a { gtxn, site, .. } => (!acc.fenced(*gtxn, *site)).then_some(*gtxn),
                PaxosMsg::ClearThenBegin { cleared, gtxn, coord, participants } => {
                    for settled in cleared {
                        registered.remove(settled);
                    }
                    registered.entry(*gtxn).or_insert((*coord, participants.clone()));
                    Some(*gtxn)
                }
                PaxosMsg::Clear { gtxn } => {
                    registered.remove(gtxn);
                    None
                }
                PaxosMsg::Accepted { .. }
                | PaxosMsg::Prepare1a { .. }
                | PaxosMsg::Promise1b { .. }
                | PaxosMsg::Propose2a { .. } => None,
            };
            let replies = acc.handle(msg);
            let fast: Vec<(u32, GlobalTxnId)> = replies
                .iter()
                .filter_map(|(to, m)| match m {
                    PaxosMsg::Accepted { gtxn, ballot, .. } if *ballot == Ballot::ZERO => {
                        Some((*to, *gtxn))
                    }
                    _ => None,
                })
                .collect();
            let ready = |gtxn: GlobalTxnId| {
                registered.get(&gtxn).is_some_and(|(_, parts)| {
                    parts.iter().all(|&site| {
                        !acc.fenced(gtxn, site)
                            && acc.accepted_vote(gtxn, site) == Some((Ballot::ZERO, Vote::Ready))
                    })
                })
            };
            let expected: Vec<(u32, GlobalTxnId)> = completes
                .filter(|&gtxn| ready(gtxn))
                .map(|gtxn| (registered[&gtxn].0, gtxn))
                .into_iter()
                .collect();
            prop_assert_eq!(fast, expected);
        }
    }

    /// Recovery rejects corruption rather than inventing state: flipping
    /// any single byte of a snapshot either fails recovery or yields some
    /// valid acceptor — it never panics.
    #[test]
    fn corrupt_snapshots_never_panic(
        msgs in proptest::collection::vec(arb_msg(), 0..30),
        pos in 0usize..4096,
        x in 1u32..256,
    ) {
        let mut acc = Acceptor::new(3_000_000);
        for msg in msgs {
            acc.handle(msg);
        }
        let mut bytes = acc.snapshot();
        prop_assume!(!bytes.is_empty());
        let i = pos % bytes.len();
        bytes[i] ^= x as u8; // x in 1..256: the byte actually changes
        let _ = Acceptor::recover(&bytes); // must not panic
    }
}
