//! The leader: the coordinator's side of Paxos Commit.
//!
//! Normal case, the coordinator is the implicit ballot-0 leader: it
//! registers each beginning transaction at the ballot-0 acceptors
//! ([`fast_path_acceptors`]) and counts their bundled phase-2b `Accepted`
//! reports (each sent once the acceptor holds every participant's direct
//! READY vote) — commit is decided once *every* ballot-0 acceptor has
//! reported. Failover, the backup becomes leader at a real ballot: one
//! phase 1 for the whole log (multi-shot) at all `2F+1` acceptors, then one
//! phase 2 per orphaned transaction carrying each participant's adopted
//! vote (or Abort where the read quorum showed none), decided at any `F+1`
//! acceptances.
//!
//! This file is panic-free: malformed or stale messages are ignored, never
//! fatal.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::{GlobalTxnId, SiteId};

use crate::msg::{AcceptedVote, PaxosMsg, Registration};
use crate::{fast_path_acceptors, quorum, Ballot, Vote};

/// A decision the consensus layer reached; the coordinator runtime turns
/// it into 2PC actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Normal case: every ballot-0 acceptor holds every participant's
    /// READY — the coordinator may commit `gtxn`.
    Commit {
        /// The decided transaction.
        gtxn: GlobalTxnId,
    },
    /// Failover: an orphaned transaction's fate, chosen from the acceptor
    /// quorum and re-replicated at the backup's ballot. The backup must
    /// adopt the transaction and drive COMMIT/ROLLBACK to `participants`.
    Adopted {
        /// The adopted transaction.
        gtxn: GlobalTxnId,
        /// Its participant sites.
        participants: BTreeSet<SiteId>,
        /// True: every instance decided Ready — commit. False: abort.
        commit: bool,
    },
}

/// Normal-case tracking of one transaction led at ballot 0.
#[derive(Debug, Default)]
struct Tracker {
    /// Acceptors whose bundled ballot-0 `Accepted` arrived.
    acks: BTreeSet<u32>,
    decided: bool,
}

/// One transaction adopted during failover.
#[derive(Debug)]
struct AdoptedTxn {
    participants: BTreeSet<SiteId>,
    /// Whether the proposal at the takeover ballot is Ready everywhere.
    commit: bool,
    /// Acceptors that accepted the proposal.
    acks: BTreeSet<u32>,
    decided: bool,
}

/// In-progress takeover state (phase 1 + adopted phase 2).
#[derive(Debug, Default)]
struct Takeover {
    promises: BTreeMap<u32, (Vec<Registration>, Vec<AcceptedVote>)>,
    proposed: bool,
    adopted: BTreeMap<GlobalTxnId, AdoptedTxn>,
}

/// The Paxos Commit leader at one coordinator node.
#[derive(Debug)]
pub struct Leader {
    node: u32,
    f: u32,
    acceptors: Vec<u32>,
    /// The leader's real ballot; [`Ballot::ZERO`] until a takeover bumps
    /// it (the fast path needs no phase 1).
    ballot: Ballot,
    txns: BTreeMap<GlobalTxnId, Tracker>,
    /// Ballot-0 transactions settled since the last registration: their
    /// compaction rides the next one. Every registration goes to the whole
    /// ballot-0 set, so this holds at most what was in flight then.
    uncleared: Vec<GlobalTxnId>,
    takeover: Option<Takeover>,
}

impl Leader {
    /// A leader at `node` tolerating `f` faults with the given acceptors.
    pub fn new(node: u32, f: u32, acceptors: Vec<u32>) -> Leader {
        Leader {
            node,
            f,
            acceptors,
            ballot: Ballot::ZERO,
            txns: BTreeMap::new(),
            uncleared: Vec::new(),
            takeover: None,
        }
    }

    /// Transactions currently tracked at ballot 0 (test observation).
    pub fn tracked(&self) -> usize {
        self.txns.len()
    }

    /// The current ballot (test observation).
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Register a beginning transaction: send its participant set to the
    /// ballot-0 acceptors so a failover knows the full instance set. The
    /// registration carries the compaction of everything settled since the
    /// previous one.
    pub fn register(
        &mut self,
        gtxn: GlobalTxnId,
        participants: BTreeSet<SiteId>,
    ) -> Vec<(u32, PaxosMsg)> {
        self.txns.insert(gtxn, Tracker::default());
        let coord = self.node;
        let msg = if self.uncleared.is_empty() {
            PaxosMsg::Begin {
                gtxn,
                coord,
                participants,
            }
        } else {
            PaxosMsg::ClearThenBegin {
                cleared: std::mem::take(&mut self.uncleared),
                gtxn,
                coord,
                participants,
            }
        };
        send_to(fast_path_acceptors(&self.acceptors), msg)
    }

    /// A transaction settled: compact it out of the acceptor logs that
    /// hold it. One adopted at the takeover ballot is cleared at every
    /// acceptor now; one of ours at ballot 0 waits for the next
    /// registration, which reaches the same F+1 acceptors. Until then a
    /// takeover may re-adopt it, and re-decides the outcome it settled
    /// with: commit needed Ready from every participant at every ballot-0
    /// acceptor, and any promise quorum includes one of them.
    pub fn finished(&mut self, gtxn: GlobalTxnId) -> Vec<(u32, PaxosMsg)> {
        let adopted = self
            .takeover
            .as_mut()
            .and_then(|t| t.adopted.remove(&gtxn))
            .is_some();
        if adopted {
            return send_to(&self.acceptors, PaxosMsg::Clear { gtxn });
        }
        if self.txns.remove(&gtxn).is_some() {
            self.uncleared.push(gtxn);
        }
        Vec::new()
    }

    /// Assume leadership over other coordinators' in-flight transactions:
    /// bump the ballot and run one whole-log phase 1.
    pub fn take_over(&mut self) -> Vec<(u32, PaxosMsg)> {
        self.ballot = Ballot {
            number: self.ballot.number + 1,
            node: self.node,
        };
        self.takeover = Some(Takeover::default());
        send_to(
            &self.acceptors,
            PaxosMsg::Prepare1a {
                ballot: self.ballot,
            },
        )
    }

    /// A Paxos message arrived: follow-ups plus any decisions reached.
    pub fn on_msg(&mut self, msg: PaxosMsg) -> (Vec<(u32, PaxosMsg)>, Vec<Decision>) {
        match msg {
            PaxosMsg::Accepted {
                gtxn,
                ballot,
                acceptor,
            } => {
                if ballot == Ballot::ZERO {
                    (Vec::new(), self.on_fast_accept(gtxn, acceptor))
                } else if ballot == self.ballot {
                    (Vec::new(), self.on_takeover_accept(gtxn, acceptor))
                } else {
                    (Vec::new(), Vec::new()) // stale ballot
                }
            }
            PaxosMsg::Promise1b {
                ballot,
                acceptor,
                registrations,
                accepted,
            } => {
                if ballot != self.ballot {
                    return (Vec::new(), Vec::new()); // stale promise
                }
                (
                    self.on_promise(acceptor, registrations, accepted),
                    Vec::new(),
                )
            }
            // Acceptor-bound traffic never legally lands here; ignore.
            PaxosMsg::Begin { .. }
            | PaxosMsg::ClearThenBegin { .. }
            | PaxosMsg::Vote2a { .. }
            | PaxosMsg::Prepare1a { .. }
            | PaxosMsg::Propose2a { .. }
            | PaxosMsg::Clear { .. } => (Vec::new(), Vec::new()),
        }
    }

    /// Ballot-0 phase 2b: an acceptor holds every participant's READY.
    /// Abort votes are never reported: the agent's REFUSE/FAILED to the
    /// coordinator aborts the transaction directly, which is always safe —
    /// commit needs unanimous READY instances, and a refused instance can
    /// never decide Ready.
    fn on_fast_accept(&mut self, gtxn: GlobalTxnId, acceptor: u32) -> Vec<Decision> {
        let Some(t) = self.txns.get_mut(&gtxn) else {
            return Vec::new(); // settled (or never ours)
        };
        if t.decided {
            return Vec::new();
        }
        t.acks.insert(acceptor);
        let decided = fast_path_acceptors(&self.acceptors)
            .iter()
            .all(|a| t.acks.contains(a));
        if !decided {
            return Vec::new();
        }
        t.decided = true;
        vec![Decision::Commit { gtxn }]
    }

    /// Takeover phase 2b: an acceptor accepted one of our proposals.
    fn on_takeover_accept(&mut self, gtxn: GlobalTxnId, acceptor: u32) -> Vec<Decision> {
        let q = quorum(self.f);
        let Some(t) = self.takeover.as_mut() else {
            return Vec::new();
        };
        let Some(adopted) = t.adopted.get_mut(&gtxn) else {
            return Vec::new();
        };
        if adopted.decided {
            return Vec::new();
        }
        adopted.acks.insert(acceptor);
        if adopted.acks.len() < q {
            return Vec::new();
        }
        adopted.decided = true;
        vec![Decision::Adopted {
            gtxn,
            participants: adopted.participants.clone(),
            commit: adopted.commit,
        }]
    }

    /// Phase 1b: collect promises; at a quorum, merge the logs and propose
    /// every orphaned transaction's per-instance values.
    fn on_promise(
        &mut self,
        acceptor: u32,
        registrations: Vec<Registration>,
        accepted: Vec<AcceptedVote>,
    ) -> Vec<(u32, PaxosMsg)> {
        let q = quorum(self.f);
        let node = self.node;
        let ballot = self.ballot;
        let Some(t) = self.takeover.as_mut() else {
            return Vec::new();
        };
        t.promises.insert(acceptor, (registrations, accepted));
        if t.proposed || t.promises.len() < q {
            return Vec::new();
        }
        t.proposed = true;
        // Merge: union of registrations; highest-ballot accepted value per
        // instance.
        let mut regs: BTreeMap<GlobalTxnId, (u32, BTreeSet<SiteId>)> = BTreeMap::new();
        let mut votes: BTreeMap<(GlobalTxnId, SiteId), (Ballot, Vote)> = BTreeMap::new();
        for (rs, vs) in t.promises.values() {
            for r in rs {
                regs.entry(r.gtxn)
                    // mdbs-check: allow(hot-alloc-in-loop, "takeover merge runs once per coordinator failure, not per message; the union must own its participant sets")
                    .or_insert((r.coord, r.participants.clone()));
            }
            for v in vs {
                let e = votes.entry((v.gtxn, v.site)).or_insert((v.ballot, v.vote));
                if v.ballot > e.0 {
                    *e = (v.ballot, v.vote);
                }
            }
        }
        let mut out = Vec::new();
        for (gtxn, (coord, participants)) in regs {
            if coord == node || t.adopted.contains_key(&gtxn) {
                continue; // our own live transactions are not orphans
            }
            let proposal: Vec<(SiteId, Vote)> = participants
                .iter()
                .map(|&site| {
                    let vote = votes
                        .get(&(gtxn, site))
                        .map(|&(_, v)| v)
                        .unwrap_or(Vote::Abort);
                    (site, vote)
                })
                .collect();
            let commit = proposal.iter().all(|&(_, v)| v == Vote::Ready);
            out.extend(send_to(
                &self.acceptors,
                PaxosMsg::Propose2a {
                    ballot,
                    gtxn,
                    votes: proposal,
                },
            ));
            t.adopted.insert(
                gtxn,
                AdoptedTxn {
                    participants,
                    commit,
                    // mdbs-check: allow(hot-alloc-in-loop, "adopted-transaction records are created once per takeover; each owns its ack set")
                    acks: BTreeSet::new(),
                    decided: false,
                },
            );
        }
        out
    }
}

/// `msg` to each of `acceptors`.
fn send_to(acceptors: &[u32], msg: PaxosMsg) -> Vec<(u32, PaxosMsg)> {
    acceptors.iter().map(|&a| (a, msg.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Acceptor;

    const G: GlobalTxnId = GlobalTxnId(1);
    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const COORD: u32 = 1_000_001;
    const BACKUP: u32 = 1_000_000;
    const ACCS: [u32; 3] = [3_000_000, 3_000_001, 3_000_002];

    fn leader(node: u32) -> Leader {
        Leader::new(node, 1, ACCS.to_vec())
    }

    fn accepted(acceptor: u32) -> PaxosMsg {
        PaxosMsg::Accepted {
            gtxn: G,
            ballot: Ballot::ZERO,
            acceptor,
        }
    }

    #[test]
    fn commit_needs_every_fast_path_acceptor() {
        let mut l = leader(COORD);
        let out = l.register(G, BTreeSet::from([A, B]));
        let to: Vec<u32> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, ACCS[..2], "registration goes to the F+1 ballot-0 set");
        assert!(l.on_msg(accepted(ACCS[0])).1.is_empty());
        // The off-path acceptor is no substitute for a ballot-0 one.
        assert!(l.on_msg(accepted(ACCS[2])).1.is_empty());
        let (_, decisions) = l.on_msg(accepted(ACCS[1]));
        assert_eq!(decisions, vec![Decision::Commit { gtxn: G }]);
        // Duplicate acceptances after the decision are inert.
        assert!(l.on_msg(accepted(ACCS[0])).1.is_empty());
    }

    /// The crashed owner's ballot-0 traffic, delivered to the ballot-0
    /// acceptors: its registration, then a READY vote from each of
    /// `voters`. Returns the owner's decisions had it lived.
    fn owner_fast_path(accs: &mut [Acceptor], voters: &[SiteId]) -> Vec<Decision> {
        let mut owner = leader(COORD);
        let mut inbox = owner.register(G, BTreeSet::from([A, B]));
        for &site in voters {
            for &a in fast_path_acceptors(&ACCS) {
                inbox.push((
                    a,
                    PaxosMsg::Vote2a {
                        gtxn: G,
                        site,
                        coord: COORD,
                        vote: Vote::Ready,
                    },
                ));
            }
        }
        let mut decisions = Vec::new();
        for (to, msg) in inbox {
            for (_, reply) in route_to(accs, to, msg) {
                decisions.extend(owner.on_msg(reply).1);
            }
        }
        decisions
    }

    fn acceptors() -> Vec<Acceptor> {
        ACCS.iter().map(|&n| Acceptor::new(n)).collect()
    }

    fn adopted(commit: bool) -> Vec<Decision> {
        vec![Decision::Adopted {
            gtxn: G,
            participants: BTreeSet::from([A, B]),
            commit,
        }]
    }

    /// Full failover against real acceptors: the crashed coordinator had
    /// both votes accepted; the backup must adopt and commit.
    #[test]
    fn takeover_completes_a_fully_voted_transaction() {
        let mut accs = acceptors();
        owner_fast_path(&mut accs, &[A, B]);
        let mut backup = leader(BACKUP);
        assert_eq!(drive(&mut backup, &mut accs, None), adopted(true));
    }

    /// The crash window: only A's vote reached the acceptors. The backup
    /// must abort — and the outcome is atomic (B's instance proposes
    /// Abort, so no quorum can ever decide Ready for it).
    #[test]
    fn takeover_aborts_a_partially_voted_transaction() {
        let mut accs = acceptors();
        owner_fast_path(&mut accs, &[A]);
        let mut backup = leader(BACKUP);
        assert_eq!(drive(&mut backup, &mut accs, None), adopted(false));
    }

    /// The owner crashed and one ballot-0 acceptor is silent. The backup's
    /// promise quorum is the other ballot-0 acceptor plus the off-path
    /// one, which never heard of the transaction: it still adopts it, and
    /// decides what the owner decided (or would have) — commit iff every
    /// participant's READY reached the ballot-0 set. Every live acceptor
    /// then holds the proposed values at the takeover ballot: the READYs
    /// that arrived, Abort for the rest.
    #[test]
    fn takeover_past_a_silent_fast_path_acceptor_decides_atomically() {
        for silent in fast_path_acceptors(&ACCS).iter().copied() {
            for voters in [&[A, B][..], &[A], &[B], &[]] {
                let mut accs = acceptors();
                let owner = owner_fast_path(&mut accs, voters);
                let commit = voters.len() == 2;
                assert_eq!(owner.is_empty(), !commit, "the owner's own verdict");
                let mut backup = leader(BACKUP);
                let decisions = drive(&mut backup, &mut accs, Some(silent));
                assert_eq!(decisions, adopted(commit), "silent {silent}, {voters:?}");
                for acc in accs.iter().filter(|a| a.node() != silent) {
                    for site in [A, B] {
                        let held = acc.accepted_vote(G, site);
                        let vote = if voters.contains(&site) {
                            Vote::Ready
                        } else {
                            Vote::Abort
                        };
                        assert_eq!(
                            held,
                            Some((backup.ballot(), vote)),
                            "acceptor {}, {site:?}",
                            acc.node()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn takeover_skips_the_backups_own_transactions() {
        let mut accs = acceptors();
        let mut backup = leader(BACKUP);
        // The backup's own live transaction is registered too.
        for (to, msg) in backup.register(G, BTreeSet::from([A])) {
            route_to(&mut accs, to, msg);
        }
        let decisions = drive(&mut backup, &mut accs, None);
        assert!(decisions.is_empty(), "own transactions are not orphans");
    }

    #[test]
    fn finished_compacts_where_the_transaction_lives() {
        let mut l = leader(COORD);
        l.register(G, BTreeSet::from([A]));
        assert!(l.finished(G).is_empty(), "compaction waits for a Begin");
        assert_eq!(l.tracked(), 0);
        // Acceptances for a settled transaction are inert.
        assert!(l.on_msg(accepted(ACCS[0])).1.is_empty());
        // The next registration carries it to the F+1 that hold it, once.
        let g2 = GlobalTxnId(2);
        let out = l.register(g2, BTreeSet::from([B]));
        let to: Vec<u32> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, ACCS[..2], "a ballot-0 transaction lives at the F+1");
        assert!(out.iter().all(|(_, m)| matches!(
            m,
            PaxosMsg::ClearThenBegin { cleared, gtxn, .. } if *cleared == [G] && *gtxn == g2
        )));
        let out = l.register(GlobalTxnId(3), BTreeSet::from([B]));
        assert!(out.iter().all(|(_, m)| matches!(m, PaxosMsg::Begin { .. })));

        // An adopted transaction was proposed to all 2F+1.
        let mut accs = acceptors();
        owner_fast_path(&mut accs, &[A, B]);
        let mut backup = leader(BACKUP);
        drive(&mut backup, &mut accs, None);
        let out = backup.finished(G);
        assert_eq!(out.len(), ACCS.len());
        for (to, msg) in out {
            route_to(&mut accs, to, msg);
        }
        assert!(accs.iter().all(|a| a.accepted_vote(G, A).is_none()));
    }

    /// Deliver every message between the backup and the acceptor set until
    /// quiescent, with `silent` (if any) dropping everything it is sent;
    /// return the decisions reached.
    fn drive(backup: &mut Leader, accs: &mut [Acceptor], silent: Option<u32>) -> Vec<Decision> {
        let mut inbox: Vec<(u32, PaxosMsg)> = backup.take_over();
        let mut decisions = Vec::new();
        let mut hops = 0;
        while !inbox.is_empty() {
            hops += 1;
            assert!(hops < 100, "message storm");
            let mut next = Vec::new();
            for (to, msg) in inbox {
                if to == backup.ballot().node {
                    let (out, ds) = backup.on_msg(msg);
                    next.extend(out);
                    decisions.extend(ds);
                } else if Some(to) != silent {
                    next.extend(route_to(accs, to, msg));
                }
            }
            inbox = next;
        }
        decisions
    }

    fn route_to(accs: &mut [Acceptor], to: u32, msg: PaxosMsg) -> Vec<(u32, PaxosMsg)> {
        for acc in accs.iter_mut() {
            if acc.node() == to {
                return acc.handle(msg);
            }
        }
        Vec::new()
    }
}
