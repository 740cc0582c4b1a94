//! The acceptor: a durable ballot/vote log, one entry per
//! *(transaction, participant)* instance, plus the transaction
//! registrations a failover reads back.
//!
//! This file is panic-free (decode paths run on recovery bytes): corrupt
//! snapshots surface as `None`, never as process death.

use std::collections::{BTreeMap, BTreeSet};

use mdbs_histories::{GlobalTxnId, SiteId};

use crate::msg::{AcceptedVote, PaxosMsg, Registration};
use crate::{Ballot, Vote};

/// Snapshot header: magic + format version.
const SNAPSHOT_MAGIC: &[u8; 4] = b"PAXL";
const SNAPSHOT_VERSION: u8 = 1;

/// One instance's log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstanceLog {
    /// The accepted (ballot, vote), if any.
    accepted: Option<(Ballot, Vote)>,
    /// Set once a phase-1b promise covered this instance: later ballot-0
    /// fast-path votes are rejected, because the promised leader may
    /// propose for it. Instances registered *after* the promise stay
    /// unfenced — the promised leader's proposals only ever cover its
    /// phase-1b snapshot, so the fast path stays open for new work
    /// (the multi-shot "log prefix" rule).
    fenced: bool,
}

impl InstanceLog {
    const EMPTY: InstanceLog = InstanceLog {
        accepted: None,
        fenced: false,
    };
}

/// One acceptor's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acceptor {
    node: u32,
    /// Highest ballot promised (phase 1) or accepted at (phase 2). One
    /// ballot for the whole log — multi-shot.
    promised: Ballot,
    registrations: BTreeMap<GlobalTxnId, (u32, BTreeSet<SiteId>)>,
    instances: BTreeMap<(GlobalTxnId, SiteId), InstanceLog>,
}

impl Acceptor {
    /// A fresh acceptor at node `node`.
    pub fn new(node: u32) -> Acceptor {
        Acceptor {
            node,
            promised: Ballot::ZERO,
            registrations: BTreeMap::new(),
            instances: BTreeMap::new(),
        }
    }

    /// This acceptor's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The highest promised ballot (test observation).
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Registered transactions still in the log (test observation).
    pub fn registered(&self) -> usize {
        self.registrations.len()
    }

    /// The accepted (ballot, vote) of one instance, if any.
    pub fn accepted_vote(&self, gtxn: GlobalTxnId, site: SiteId) -> Option<(Ballot, Vote)> {
        self.instances.get(&(gtxn, site)).and_then(|i| i.accepted)
    }

    /// Whether a promise or a takeover proposal closed one instance's
    /// fast path here (test observation).
    pub fn fenced(&self, gtxn: GlobalTxnId, site: SiteId) -> bool {
        self.instances.get(&(gtxn, site)).is_some_and(|i| i.fenced)
    }

    /// Handle one Paxos message; returns `(to, msg)` replies.
    pub fn handle(&mut self, msg: PaxosMsg) -> Vec<(u32, PaxosMsg)> {
        match msg {
            PaxosMsg::Begin {
                gtxn,
                coord,
                participants,
            } => self.register(gtxn, coord, participants),
            PaxosMsg::ClearThenBegin {
                cleared,
                gtxn,
                coord,
                participants,
            } => {
                // Compaction is idempotent, so a retransmission is too.
                for settled in cleared {
                    self.compact(settled);
                }
                self.register(gtxn, coord, participants)
            }
            // The report goes to the registration's coordinator, which the
            // vote names too.
            PaxosMsg::Vote2a {
                gtxn,
                site,
                coord: _,
                vote,
            } => self.on_vote2a(gtxn, site, vote),
            PaxosMsg::Prepare1a { ballot } => self.on_prepare1a(ballot),
            PaxosMsg::Propose2a {
                ballot,
                gtxn,
                votes,
            } => self.on_propose2a(ballot, gtxn, votes),
            PaxosMsg::Clear { gtxn } => {
                self.compact(gtxn);
                Vec::new()
            }
            // Leader-bound traffic never legally lands here; ignore.
            PaxosMsg::Accepted { .. } | PaxosMsg::Promise1b { .. } => Vec::new(),
        }
    }

    /// Register a transaction. The first registration wins; duplicates are
    /// retransmissions. The votes may have arrived first: then this
    /// completes the bundle.
    fn register(
        &mut self,
        gtxn: GlobalTxnId,
        coord: u32,
        participants: BTreeSet<SiteId>,
    ) -> Vec<(u32, PaxosMsg)> {
        self.registrations
            .entry(gtxn)
            .or_insert((coord, participants));
        self.bundle(gtxn)
    }

    /// Log compaction: drop a settled transaction's registration and
    /// instances.
    fn compact(&mut self, gtxn: GlobalTxnId) {
        self.registrations.remove(&gtxn);
        let stale: Vec<(GlobalTxnId, SiteId)> = self
            .instances
            .range((gtxn, SiteId(0))..=(gtxn, SiteId(u32::MAX)))
            .map(|(k, _)| *k)
            .collect();
        for k in stale {
            self.instances.remove(&k);
        }
    }

    /// Fast path: a participant's direct ballot-0 vote.
    fn on_vote2a(&mut self, gtxn: GlobalTxnId, site: SiteId, vote: Vote) -> Vec<(u32, PaxosMsg)> {
        let entry = self
            .instances
            .entry((gtxn, site))
            .or_insert(InstanceLog::EMPTY);
        if entry.fenced {
            // A promised leader may propose for this instance: the
            // fast path is closed. The vote is not lost — the leader's
            // phase-1b read decides from what a quorum accepted in time.
            return Vec::new();
        }
        // First vote wins. A retransmitted vote re-sends the bundle (the
        // earlier one may have been lost with its coordinator).
        entry.accepted.get_or_insert((Ballot::ZERO, vote));
        self.bundle(gtxn)
    }

    /// Ballot-0 phase 2b, one per transaction: an `Accepted` to the
    /// registered coordinator once every registered participant's instance
    /// holds an unfenced ballot-0 Ready here, and nothing before. An Abort
    /// vote therefore never answers: the agent's REFUSE aborts the
    /// transaction at its coordinator directly.
    fn bundle(&self, gtxn: GlobalTxnId) -> Vec<(u32, PaxosMsg)> {
        let Some((coord, participants)) = self.registrations.get(&gtxn) else {
            return Vec::new(); // the votes came first; Begin completes it
        };
        let ready = |site: &SiteId| {
            self.instances
                .get(&(gtxn, *site))
                .is_some_and(|log| !log.fenced && log.accepted == Some((Ballot::ZERO, Vote::Ready)))
        };
        if !participants.iter().all(ready) {
            return Vec::new();
        }
        vec![(
            *coord,
            PaxosMsg::Accepted {
                gtxn,
                ballot: Ballot::ZERO,
                acceptor: self.node,
            },
        )]
    }

    /// Phase 1a: promise the whole log to a higher ballot.
    fn on_prepare1a(&mut self, ballot: Ballot) -> Vec<(u32, PaxosMsg)> {
        if ballot <= self.promised {
            return Vec::new(); // stale leader; no promise
        }
        self.promised = ballot;
        // Fence every instance the promise covers: registered pairs and
        // any already-voted stragglers — EXCEPT transactions the promised
        // leader coordinates itself. A takeover adopts *other* (crashed)
        // coordinators' work; the leader keeps driving its own in-flight
        // transactions on the ballot-0 fast path, and fencing those would
        // strand their votes (the leader never proposes for its own log).
        let pairs: Vec<(GlobalTxnId, SiteId)> = self
            .registrations
            .iter()
            .filter(|(_, (coord, _))| *coord != ballot.node)
            .flat_map(|(&gtxn, (_, parts))| parts.iter().map(move |&s| (gtxn, s)))
            .collect();
        for key in pairs {
            self.instances
                .entry(key)
                .or_insert(InstanceLog::EMPTY)
                .fenced = true;
        }
        let own: BTreeSet<GlobalTxnId> = self
            .registrations
            .iter()
            .filter(|(_, (coord, _))| *coord == ballot.node)
            .map(|(&gtxn, _)| gtxn)
            .collect();
        for (&(gtxn, _), log) in self.instances.iter_mut() {
            if !own.contains(&gtxn) {
                log.fenced = true;
            }
        }
        let registrations: Vec<Registration> = self
            .registrations
            .iter()
            .map(|(&gtxn, (coord, participants))| Registration {
                gtxn,
                coord: *coord,
                participants: participants.clone(),
            })
            .collect();
        let accepted: Vec<AcceptedVote> = self
            .instances
            .iter()
            .filter_map(|(&(gtxn, site), log)| {
                log.accepted.map(|(ballot, vote)| AcceptedVote {
                    gtxn,
                    site,
                    ballot,
                    vote,
                })
            })
            .collect();
        vec![(
            ballot.node,
            PaxosMsg::Promise1b {
                ballot,
                acceptor: self.node,
                registrations,
                accepted,
            },
        )]
    }

    /// Phase 2a at a real ballot, every instance of one transaction:
    /// accept unless a higher ballot was promised, and report once.
    fn on_propose2a(
        &mut self,
        ballot: Ballot,
        gtxn: GlobalTxnId,
        votes: Vec<(SiteId, Vote)>,
    ) -> Vec<(u32, PaxosMsg)> {
        if ballot < self.promised {
            return Vec::new(); // superseded proposer
        }
        self.promised = ballot;
        for (site, vote) in votes {
            let entry = self
                .instances
                .entry((gtxn, site))
                .or_insert(InstanceLog::EMPTY);
            entry.fenced = true;
            if entry.accepted.is_none_or(|(b, _)| b <= ballot) {
                entry.accepted = Some((ballot, vote));
            }
        }
        vec![(
            ballot.node,
            PaxosMsg::Accepted {
                gtxn,
                ballot,
                acceptor: self.node,
            },
        )]
    }

    /// Serialize the durable state (what a real deployment would fsync on
    /// every accept — here the recovery contract the proptests pin).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        put_u32(&mut out, self.node);
        put_u32(&mut out, self.promised.number);
        put_u32(&mut out, self.promised.node);
        put_u32(&mut out, self.registrations.len() as u32);
        for (gtxn, (coord, parts)) in &self.registrations {
            put_u32(&mut out, gtxn.0);
            put_u32(&mut out, *coord);
            put_u32(&mut out, parts.len() as u32);
            for site in parts {
                put_u32(&mut out, site.0);
            }
        }
        put_u32(&mut out, self.instances.len() as u32);
        for (&(gtxn, site), log) in &self.instances {
            put_u32(&mut out, gtxn.0);
            put_u32(&mut out, site.0);
            out.push(u8::from(log.fenced));
            match log.accepted {
                None => out.push(0),
                Some((ballot, vote)) => {
                    out.push(1);
                    put_u32(&mut out, ballot.number);
                    put_u32(&mut out, ballot.node);
                    out.push(match vote {
                        Vote::Ready => 0,
                        Vote::Abort => 1,
                    });
                }
            }
        }
        out
    }

    /// Rebuild an acceptor from a snapshot. `None` on any corruption —
    /// including trailing garbage.
    pub fn recover(bytes: &[u8]) -> Option<Acceptor> {
        let mut cur = Cursor { bytes, off: 0 };
        if cur.take(4)? != SNAPSHOT_MAGIC.as_slice() || cur.u8()? != SNAPSHOT_VERSION {
            return None;
        }
        let node = cur.u32()?;
        let promised = Ballot {
            number: cur.u32()?,
            node: cur.u32()?,
        };
        let mut registrations = BTreeMap::new();
        for _ in 0..cur.u32()? {
            let gtxn = GlobalTxnId(cur.u32()?);
            let coord = cur.u32()?;
            let mut parts = BTreeSet::new();
            for _ in 0..cur.u32()? {
                parts.insert(SiteId(cur.u32()?));
            }
            registrations.insert(gtxn, (coord, parts));
        }
        let mut instances = BTreeMap::new();
        for _ in 0..cur.u32()? {
            let key = (GlobalTxnId(cur.u32()?), SiteId(cur.u32()?));
            let fenced = cur.u8()? != 0;
            let accepted = match cur.u8()? {
                0 => None,
                1 => {
                    let ballot = Ballot {
                        number: cur.u32()?,
                        node: cur.u32()?,
                    };
                    let vote = match cur.u8()? {
                        0 => Vote::Ready,
                        1 => Vote::Abort,
                        _ => return None,
                    };
                    Some((ballot, vote))
                }
                _ => return None,
            };
            instances.insert(key, InstanceLog { accepted, fenced });
        }
        if cur.off != bytes.len() {
            return None;
        }
        Some(Acceptor {
            node,
            promised,
            registrations,
            instances,
        })
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over the snapshot bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.off.checked_add(n)?;
        let slice = self.bytes.get(self.off..end)?;
        self.off = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        let raw = self.take(4)?;
        <[u8; 4]>::try_from(raw).ok().map(u32::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: GlobalTxnId = GlobalTxnId(7);
    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const COORD: u32 = 1_000_001;
    const ACC: u32 = 3_000_000;

    fn acceptor_with_vote() -> Acceptor {
        let mut acc = Acceptor::new(ACC);
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
        acc
    }

    fn vote(site: SiteId, vote: Vote) -> PaxosMsg {
        PaxosMsg::Vote2a {
            gtxn: G,
            site,
            coord: COORD,
            vote,
        }
    }

    fn bundle() -> Vec<(u32, PaxosMsg)> {
        vec![(
            COORD,
            PaxosMsg::Accepted {
                gtxn: G,
                ballot: Ballot::ZERO,
                acceptor: ACC,
            },
        )]
    }

    #[test]
    fn fast_path_reports_once_every_participant_is_ready() {
        let mut acc = acceptor_with_vote();
        assert_eq!(acc.accepted_vote(G, A), Some((Ballot::ZERO, Vote::Ready)));
        // A conflicting duplicate does not overwrite, and A alone is no
        // bundle.
        assert!(acc.handle(vote(A, Vote::Abort)).is_empty());
        assert_eq!(acc.accepted_vote(G, A), Some((Ballot::ZERO, Vote::Ready)));
        // B completes it: one Accepted for the whole transaction.
        assert_eq!(acc.handle(vote(B, Vote::Ready)), bundle());
        // A retransmitted vote re-sends the bundle.
        assert_eq!(acc.handle(vote(A, Vote::Ready)), bundle());
    }

    #[test]
    fn a_registration_after_the_votes_completes_the_bundle() {
        let mut acc = Acceptor::new(ACC);
        assert!(acc.handle(vote(A, Vote::Ready)).is_empty());
        assert!(acc.handle(vote(B, Vote::Ready)).is_empty());
        let begin = PaxosMsg::Begin {
            gtxn: G,
            coord: COORD,
            participants: BTreeSet::from([A, B]),
        };
        assert_eq!(acc.handle(begin), bundle());
    }

    #[test]
    fn an_abort_vote_never_answers() {
        let mut acc = acceptor_with_vote();
        assert!(acc.handle(vote(B, Vote::Abort)).is_empty());
        assert!(acc.handle(vote(B, Vote::Ready)).is_empty());
        assert_eq!(acc.accepted_vote(G, B), Some((Ballot::ZERO, Vote::Abort)));
    }

    #[test]
    fn promise_carries_the_full_log_and_fences_the_fast_path() {
        let mut acc = acceptor_with_vote();
        let ballot = Ballot {
            number: 1,
            node: 1_000_000,
        };
        let replies = acc.handle(PaxosMsg::Prepare1a { ballot });
        assert_eq!(replies.len(), 1);
        let (to, msg) = replies.into_iter().next().unwrap();
        assert_eq!(to, 1_000_000);
        let PaxosMsg::Promise1b {
            registrations,
            accepted,
            ..
        } = msg
        else {
            panic!("expected Promise1b, got {msg:?}");
        };
        assert_eq!(registrations.len(), 1);
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].site, A);
        // B's late fast-path vote is fenced out (B was registered, so the
        // promised leader may propose Abort for it).
        assert!(acc
            .handle(PaxosMsg::Vote2a {
                gtxn: G,
                site: B,
                coord: COORD,
                vote: Vote::Ready,
            })
            .is_empty());
        assert_eq!(acc.accepted_vote(G, B), None);
        // A stale re-prepare at a lower ballot gets nothing.
        assert!(acc
            .handle(PaxosMsg::Prepare1a {
                ballot: Ballot::ZERO
            })
            .is_empty());
    }

    #[test]
    fn fast_path_stays_open_for_transactions_registered_after_the_promise() {
        let mut acc = acceptor_with_vote();
        acc.handle(PaxosMsg::Prepare1a {
            ballot: Ballot {
                number: 1,
                node: 1_000_000,
            },
        });
        // New transaction, registered after the promise: its instances are
        // unfenced, the fast path still works.
        let g2 = GlobalTxnId(8);
        acc.handle(PaxosMsg::Begin {
            gtxn: g2,
            coord: 1_000_000,
            participants: BTreeSet::from([A]),
        });
        let replies = acc.handle(PaxosMsg::Vote2a {
            gtxn: g2,
            site: A,
            coord: 1_000_000,
            vote: Vote::Ready,
        });
        assert_eq!(replies.len(), 1);
        assert_eq!(acc.accepted_vote(g2, A), Some((Ballot::ZERO, Vote::Ready)));
    }

    #[test]
    fn propose_overwrites_lower_ballots_only() {
        let mut acc = acceptor_with_vote();
        let b1 = Ballot {
            number: 1,
            node: 1_000_000,
        };
        acc.handle(PaxosMsg::Prepare1a { ballot: b1 });
        let replies = acc.handle(PaxosMsg::Propose2a {
            ballot: b1,
            gtxn: G,
            votes: vec![(A, Vote::Ready), (B, Vote::Abort)],
        });
        // One report for the whole transaction.
        assert_eq!(
            replies,
            vec![(
                b1.node,
                PaxosMsg::Accepted {
                    gtxn: G,
                    ballot: b1,
                    acceptor: ACC,
                },
            )]
        );
        assert_eq!(acc.accepted_vote(G, A), Some((b1, Vote::Ready)));
        assert_eq!(acc.accepted_vote(G, B), Some((b1, Vote::Abort)));
        // A proposal below the promise is rejected.
        assert!(acc
            .handle(PaxosMsg::Propose2a {
                ballot: Ballot::ZERO,
                gtxn: G,
                votes: vec![(B, Vote::Ready)],
            })
            .is_empty());
        assert_eq!(acc.accepted_vote(G, B), Some((b1, Vote::Abort)));
    }

    /// An adopted transaction's standalone compaction: the whole of `G`
    /// goes, and nothing else.
    #[test]
    fn clear_compacts_one_transaction() {
        let mut acc = acceptor_with_vote();
        acc.handle(PaxosMsg::Begin {
            gtxn: GlobalTxnId(8),
            coord: COORD,
            participants: BTreeSet::from([B]),
        });
        assert!(acc.handle(PaxosMsg::Clear { gtxn: G }).is_empty());
        assert_eq!(acc.registered(), 1);
        assert_eq!(acc.accepted_vote(G, A), None);
        assert!(acc.handle(PaxosMsg::Clear { gtxn: G }).is_empty());
        assert_eq!(acc.registered(), 1, "a repeated Clear finds nothing");
    }

    /// A ballot-0 transaction's compaction rides the next registration:
    /// the settled ones go before the new one is registered, and the
    /// retransmitted message compacts nothing more and registers nothing
    /// twice.
    #[test]
    fn a_registration_compacts_what_it_carries_first() {
        let mut acc = acceptor_with_vote();
        let g2 = GlobalTxnId(8);
        acc.handle(PaxosMsg::Begin {
            gtxn: g2,
            coord: COORD,
            participants: BTreeSet::from([B]),
        });
        let g3 = GlobalTxnId(9);
        let next = PaxosMsg::ClearThenBegin {
            cleared: vec![G, GlobalTxnId(99)],
            gtxn: g3,
            coord: COORD,
            participants: BTreeSet::from([A]),
        };
        for _ in 0..2 {
            assert!(acc.handle(next.clone()).is_empty());
            assert_eq!(acc.registered(), 2, "g2 and g3, not G");
            assert_eq!(acc.accepted_vote(G, A), None);
        }
        // The new registration is live: its vote completes its bundle.
        let ready = PaxosMsg::Vote2a {
            gtxn: g3,
            site: A,
            coord: COORD,
            vote: Vote::Ready,
        };
        assert_eq!(acc.handle(ready.clone()).len(), 1);
        // Where the vote came first, the registration answers the bundle,
        // as a plain Begin does.
        let mut late = Acceptor::new(ACC);
        assert!(late.handle(ready).is_empty());
        assert_eq!(late.handle(next).len(), 1);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let mut acc = acceptor_with_vote();
        acc.handle(PaxosMsg::Prepare1a {
            ballot: Ballot {
                number: 2,
                node: 1_000_000,
            },
        });
        let bytes = acc.snapshot();
        assert_eq!(Acceptor::recover(&bytes), Some(acc));
        assert_eq!(Acceptor::recover(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Acceptor::recover(b"nonsense"), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(Acceptor::recover(&trailing), None);
    }
}
