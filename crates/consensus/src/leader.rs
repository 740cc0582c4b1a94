//! The leader: the coordinator's side of Paxos Commit.
//!
//! Normal case, the coordinator is the implicit ballot-0 leader: it
//! registers each beginning transaction at the acceptors and counts
//! phase-2b `Accepted` reports (triggered by the participants' direct
//! votes) — commit is decided once *every* participant's READY holds at a
//! majority. Failover, the backup becomes leader at a real ballot: one
//! phase 1 for the whole log (multi-shot), then per-instance phase 2 with
//! the adopted vote (or Abort where the read quorum showed none).
//!
//! This file is panic-free: malformed or stale messages are ignored, never
//! fatal.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::{GlobalTxnId, SiteId};

use crate::msg::{AcceptedVote, PaxosMsg, Registration};
use crate::{quorum, Ballot, Vote};

/// A decision the consensus layer reached; the coordinator runtime turns
/// it into 2PC actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Normal case: every participant's READY holds at a quorum — the
    /// coordinator may commit `gtxn`.
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
#[derive(Debug)]
struct Tracker {
    participants: BTreeSet<SiteId>,
    /// Per participant: acceptors that reported `Accepted(Ready)` at
    /// ballot 0.
    ready_acks: BTreeMap<SiteId, BTreeSet<u32>>,
    decided: bool,
}

/// One transaction adopted during failover.
#[derive(Debug)]
struct AdoptedTxn {
    participants: BTreeSet<SiteId>,
    /// The per-instance votes proposed at the takeover ballot.
    votes: BTreeMap<SiteId, Vote>,
    /// Per instance: acceptors that accepted the proposal.
    acks: BTreeMap<SiteId, BTreeSet<u32>>,
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

    /// Register a beginning transaction: broadcast its participant set to
    /// every acceptor so a failover knows the full instance set.
    pub fn register(
        &mut self,
        gtxn: GlobalTxnId,
        participants: BTreeSet<SiteId>,
    ) -> Vec<(u32, PaxosMsg)> {
        let msg = PaxosMsg::Begin {
            gtxn,
            coord: self.node,
            participants: participants.clone(),
        };
        self.txns.insert(
            gtxn,
            Tracker {
                participants,
                ready_acks: BTreeMap::new(),
                decided: false,
            },
        );
        self.broadcast(msg)
    }

    /// A transaction settled: compact it out of the acceptor logs.
    pub fn finished(&mut self, gtxn: GlobalTxnId) -> Vec<(u32, PaxosMsg)> {
        self.txns.remove(&gtxn);
        if let Some(t) = self.takeover.as_mut() {
            t.adopted.remove(&gtxn);
        }
        self.broadcast(PaxosMsg::Clear { gtxn })
    }

    /// Assume leadership over other coordinators' in-flight transactions:
    /// bump the ballot and run one whole-log phase 1.
    pub fn take_over(&mut self) -> Vec<(u32, PaxosMsg)> {
        self.ballot = Ballot {
            number: self.ballot.number + 1,
            node: self.node,
        };
        self.takeover = Some(Takeover::default());
        self.broadcast(PaxosMsg::Prepare1a {
            ballot: self.ballot,
        })
    }

    /// A Paxos message arrived: follow-ups plus any decisions reached.
    pub fn on_msg(&mut self, msg: PaxosMsg) -> (Vec<(u32, PaxosMsg)>, Vec<Decision>) {
        match msg {
            PaxosMsg::Accepted {
                gtxn,
                site,
                ballot,
                vote,
                acceptor,
            } => {
                if ballot == Ballot::ZERO {
                    (Vec::new(), self.on_fast_accept(gtxn, site, vote, acceptor))
                } else if ballot == self.ballot {
                    (Vec::new(), self.on_takeover_accept(gtxn, site, acceptor))
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
            | PaxosMsg::Vote2a { .. }
            | PaxosMsg::Prepare1a { .. }
            | PaxosMsg::Propose2a { .. }
            | PaxosMsg::Clear { .. } => (Vec::new(), Vec::new()),
        }
    }

    /// Ballot-0 phase 2b: an acceptor accepted a participant's direct
    /// vote.
    fn on_fast_accept(
        &mut self,
        gtxn: GlobalTxnId,
        site: SiteId,
        vote: Vote,
        acceptor: u32,
    ) -> Vec<Decision> {
        let q = quorum(self.f);
        let Some(t) = self.txns.get_mut(&gtxn) else {
            return Vec::new(); // settled (or never ours)
        };
        if t.decided || vote != Vote::Ready || !t.participants.contains(&site) {
            // Abort votes need no counting: the agent's REFUSE/FAILED to
            // the coordinator aborts the transaction directly, which is
            // always safe — commit needs unanimous READY instances, and a
            // refused instance can never decide Ready.
            return Vec::new();
        }
        t.ready_acks.entry(site).or_default().insert(acceptor);
        let decided = t
            .participants
            .iter()
            .all(|s| t.ready_acks.get(s).is_some_and(|a| a.len() >= q));
        if !decided {
            return Vec::new();
        }
        t.decided = true;
        vec![Decision::Commit { gtxn }]
    }

    /// Takeover phase 2b: an acceptor accepted one of our proposals.
    fn on_takeover_accept(
        &mut self,
        gtxn: GlobalTxnId,
        site: SiteId,
        acceptor: u32,
    ) -> Vec<Decision> {
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
        adopted.acks.entry(site).or_default().insert(acceptor);
        let all_held = adopted
            .participants
            .iter()
            .all(|s| adopted.acks.get(s).is_some_and(|a| a.len() >= q));
        if !all_held {
            return Vec::new();
        }
        adopted.decided = true;
        let commit = adopted.votes.values().all(|&v| v == Vote::Ready);
        vec![Decision::Adopted {
            gtxn,
            participants: adopted.participants.clone(),
            commit,
        }]
    }

    /// Phase 1b: collect promises; at a quorum, merge the logs and propose
    /// per-instance values for every orphaned transaction.
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
            // mdbs-check: allow(hot-alloc-in-loop, "one proposal map per orphan transaction, built once per takeover — a failover event, not a message-rate path")
            let mut proposal: BTreeMap<SiteId, Vote> = BTreeMap::new();
            for &site in &participants {
                let vote = votes
                    .get(&(gtxn, site))
                    .map(|&(_, v)| v)
                    .unwrap_or(Vote::Abort);
                proposal.insert(site, vote);
                for &a in &self.acceptors {
                    out.push((
                        a,
                        PaxosMsg::Propose2a {
                            ballot,
                            gtxn,
                            site,
                            vote,
                        },
                    ));
                }
            }
            t.adopted.insert(
                gtxn,
                AdoptedTxn {
                    participants,
                    votes: proposal,
                    // mdbs-check: allow(hot-alloc-in-loop, "adopted-transaction records are created once per takeover; each owns its ack map")
                    acks: BTreeMap::new(),
                    decided: false,
                },
            );
        }
        out
    }

    fn broadcast(&self, msg: PaxosMsg) -> Vec<(u32, PaxosMsg)> {
        self.acceptors.iter().map(|&a| (a, msg.clone())).collect()
    }
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

    fn accepted(site: SiteId, acceptor: u32) -> PaxosMsg {
        PaxosMsg::Accepted {
            gtxn: G,
            site,
            ballot: Ballot::ZERO,
            vote: Vote::Ready,
            acceptor,
        }
    }

    #[test]
    fn commit_needs_a_quorum_for_every_participant() {
        let mut l = leader(COORD);
        let out = l.register(G, BTreeSet::from([A, B]));
        assert_eq!(out.len(), 3, "registration broadcast to 2F+1 acceptors");
        // Two acceptances for A alone: no decision (B uncovered).
        assert!(l.on_msg(accepted(A, ACCS[0])).1.is_empty());
        assert!(l.on_msg(accepted(A, ACCS[1])).1.is_empty());
        // One acceptance for B: still short of B's quorum.
        assert!(l.on_msg(accepted(B, ACCS[2])).1.is_empty());
        // B reaches F+1: decided.
        let (_, decisions) = l.on_msg(accepted(B, ACCS[0]));
        assert_eq!(decisions, vec![Decision::Commit { gtxn: G }]);
        // Duplicate acceptances after the decision are inert.
        assert!(l.on_msg(accepted(B, ACCS[1])).1.is_empty());
    }

    /// Full failover against real acceptors: the crashed coordinator had
    /// both votes accepted; the backup must adopt and commit.
    #[test]
    fn takeover_completes_a_fully_voted_transaction() {
        let mut accs: Vec<Acceptor> = ACCS.iter().map(|&n| Acceptor::new(n)).collect();
        for acc in &mut accs {
            acc.handle(PaxosMsg::Begin {
                gtxn: G,
                coord: COORD,
                participants: BTreeSet::from([A, B]),
            });
            for site in [A, B] {
                acc.handle(PaxosMsg::Vote2a {
                    gtxn: G,
                    site,
                    coord: COORD,
                    vote: Vote::Ready,
                });
            }
        }
        let mut backup = leader(BACKUP);
        let decisions = drive(&mut backup, &mut accs);
        assert_eq!(
            decisions,
            vec![Decision::Adopted {
                gtxn: G,
                participants: BTreeSet::from([A, B]),
                commit: true,
            }]
        );
    }

    /// The crash window: only A's vote reached the acceptors. The backup
    /// must abort — and the outcome is atomic (B's instance proposes
    /// Abort, so no quorum can ever decide Ready for it).
    #[test]
    fn takeover_aborts_a_partially_voted_transaction() {
        let mut accs: Vec<Acceptor> = ACCS.iter().map(|&n| Acceptor::new(n)).collect();
        for acc in &mut accs {
            acc.handle(PaxosMsg::Begin {
                gtxn: G,
                coord: COORD,
                participants: BTreeSet::from([A, B]),
            });
            acc.handle(PaxosMsg::Vote2a {
                gtxn: G,
                site: A,
                coord: COORD,
                vote: Vote::Ready,
            });
        }
        let mut backup = leader(BACKUP);
        let decisions = drive(&mut backup, &mut accs);
        assert_eq!(
            decisions,
            vec![Decision::Adopted {
                gtxn: G,
                participants: BTreeSet::from([A, B]),
                commit: false,
            }]
        );
    }

    #[test]
    fn takeover_skips_the_backups_own_transactions() {
        let mut accs: Vec<Acceptor> = ACCS.iter().map(|&n| Acceptor::new(n)).collect();
        let mut backup = leader(BACKUP);
        // The backup's own live transaction is registered too.
        for (to, msg) in backup.register(G, BTreeSet::from([A])) {
            route_to(&mut accs, to, msg);
        }
        let decisions = drive(&mut backup, &mut accs);
        assert!(decisions.is_empty(), "own transactions are not orphans");
    }

    #[test]
    fn finished_compacts_everywhere() {
        let mut l = leader(COORD);
        l.register(G, BTreeSet::from([A]));
        let out = l.finished(G);
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, PaxosMsg::Clear { gtxn } if *gtxn == G)));
        assert_eq!(l.tracked(), 0);
        // Acceptances for a settled transaction are inert.
        assert!(l.on_msg(accepted(A, ACCS[0])).1.is_empty());
    }

    /// Deliver every message between the backup and the acceptor set until
    /// quiescent; return the decisions reached.
    fn drive(backup: &mut Leader, accs: &mut [Acceptor]) -> Vec<Decision> {
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
                } else {
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
