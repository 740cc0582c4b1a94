//! The wire codec: a hand-rolled little-endian encoding of the protocol
//! vocabulary and the cluster envelope.
//!
//! Design rules:
//!
//! * **No panics on hostile input.** Every read is bounds-checked through
//!   [`Reader`]; a short buffer yields [`WireError::Truncated`], an unknown
//!   discriminant yields [`WireError::BadTag`]. Collection lengths are
//!   checked against the bytes actually remaining before allocating, so a
//!   corrupt length prefix cannot balloon memory.
//! * **Fixed layout.** Integers are little-endian; enums are a one-byte
//!   tag followed by the variant's fields in declaration order; `Vec`/sets
//!   are a `u32` count followed by the items; strings are a `u32` byte
//!   length followed by UTF-8.
//! * **Exactly the payload.** [`decode_msg`] rejects trailing bytes — a
//!   frame carries one message, nothing else.

use std::collections::BTreeSet;
use std::fmt;

use mdbs_baselines::SiteLockMode;
use mdbs_consensus::{AcceptedVote, Ballot, PaxosMsg, Registration, Vote};
use mdbs_dtm::{GlobalOutcome, Message, RefuseReason, SerialNumber};
use mdbs_histories::{GlobalTxnId, Item, LocalTxnId, Op, OpKind, SiteId, Txn};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use mdbs_runtime::CtrlMsg;

/// A decode failure. Encoding is infallible; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// An enum discriminant not in the vocabulary.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared collection length exceeds the bytes remaining.
    BadLen,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the message was fully decoded.
    Trailing,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated value"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadLen => write!(f, "length prefix exceeds remaining bytes"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::Trailing => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over a payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        // mdbs-check: allow(panic-freedom, "in bounds by the `remaining` guard above: this is the single bounds-checked gate every other read goes through")
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A fixed-size slice as an array. `take` already guarantees the
    /// length, so the conversion cannot fail; it still reports
    /// [`WireError::Truncated`] rather than panicking.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        match self.take(1)? {
            [b] => Ok(*b),
            _ => Err(WireError::Truncated),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A `u32` collection count, sanity-checked against the remaining
    /// bytes (every item needs at least one byte).
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::BadLen);
        }
        Ok(n)
    }
}

/// Types with a wire representation.
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value from the cursor.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.i64()
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(WireError::BadLen);
        }
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut s = BTreeSet::new();
        for _ in 0..n {
            s.insert(T::get(r)?);
        }
        Ok(s)
    }
}

impl Wire for SiteId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SiteId(r.u32()?))
    }
}

impl Wire for GlobalTxnId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GlobalTxnId(r.u32()?))
    }
}

impl Wire for SerialNumber {
    fn put(&self, out: &mut Vec<u8>) {
        self.ticks.put(out);
        self.node.put(out);
        self.seq.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SerialNumber {
            ticks: r.u64()?,
            node: r.u32()?,
            seq: r.u32()?,
        })
    }
}

impl Wire for KeySpec {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            KeySpec::Key(k) => {
                out.push(0);
                k.put(out);
            }
            KeySpec::Range(lo, hi) => {
                out.push(1);
                lo.put(out);
                hi.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(KeySpec::Key(r.u64()?)),
            1 => Ok(KeySpec::Range(r.u64()?, r.u64()?)),
            tag => Err(WireError::BadTag {
                what: "KeySpec",
                tag,
            }),
        }
    }
}

impl Wire for Command {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            Command::Select(spec) => {
                out.push(0);
                spec.put(out);
            }
            Command::Update(spec, delta) => {
                out.push(1);
                spec.put(out);
                delta.put(out);
            }
            Command::Assign(spec, v) => {
                out.push(2);
                spec.put(out);
                v.put(out);
            }
            Command::Insert(k, v) => {
                out.push(3);
                k.put(out);
                v.put(out);
            }
            Command::Delete(spec) => {
                out.push(4);
                spec.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Command::Select(KeySpec::get(r)?)),
            1 => Ok(Command::Update(KeySpec::get(r)?, r.i64()?)),
            2 => Ok(Command::Assign(KeySpec::get(r)?, r.i64()?)),
            3 => Ok(Command::Insert(r.u64()?, r.i64()?)),
            4 => Ok(Command::Delete(KeySpec::get(r)?)),
            tag => Err(WireError::BadTag {
                what: "Command",
                tag,
            }),
        }
    }
}

impl Wire for CommandResult {
    fn put(&self, out: &mut Vec<u8>) {
        self.rows.put(out);
        self.wrote.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CommandResult {
            rows: Vec::get(r)?,
            wrote: Vec::get(r)?,
        })
    }
}

impl Wire for RefuseReason {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RefuseReason::SnOutOfOrder => 0,
            RefuseReason::AliveIntervalDisjoint => 1,
            RefuseReason::NotAlive => 2,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RefuseReason::SnOutOfOrder),
            1 => Ok(RefuseReason::AliveIntervalDisjoint),
            2 => Ok(RefuseReason::NotAlive),
            tag => Err(WireError::BadTag {
                what: "RefuseReason",
                tag,
            }),
        }
    }
}

impl Wire for GlobalOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            GlobalOutcome::Committed => 0,
            GlobalOutcome::Aborted => 1,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(GlobalOutcome::Committed),
            1 => Ok(GlobalOutcome::Aborted),
            tag => Err(WireError::BadTag {
                what: "GlobalOutcome",
                tag,
            }),
        }
    }
}

impl Wire for SiteLockMode {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SiteLockMode::Read => 0,
            SiteLockMode::Update => 1,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SiteLockMode::Read),
            1 => Ok(SiteLockMode::Update),
            tag => Err(WireError::BadTag {
                what: "SiteLockMode",
                tag,
            }),
        }
    }
}

impl Wire for Message {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Message::Begin { gtxn, coord } => {
                out.push(0);
                gtxn.put(out);
                coord.put(out);
            }
            Message::Dml {
                gtxn,
                step,
                command,
            } => {
                out.push(1);
                gtxn.put(out);
                step.put(out);
                command.put(out);
            }
            Message::Prepare { gtxn, sn } => {
                out.push(2);
                gtxn.put(out);
                sn.put(out);
            }
            Message::Commit { gtxn } => {
                out.push(3);
                gtxn.put(out);
            }
            Message::Rollback { gtxn } => {
                out.push(4);
                gtxn.put(out);
            }
            Message::DmlResult {
                gtxn,
                site,
                step,
                result,
            } => {
                out.push(5);
                gtxn.put(out);
                site.put(out);
                step.put(out);
                result.put(out);
            }
            Message::Failed { gtxn, site } => {
                out.push(6);
                gtxn.put(out);
                site.put(out);
            }
            Message::Ready { gtxn, site } => {
                out.push(7);
                gtxn.put(out);
                site.put(out);
            }
            Message::Refuse { gtxn, site, reason } => {
                out.push(8);
                gtxn.put(out);
                site.put(out);
                reason.put(out);
            }
            Message::CommitAck { gtxn, site } => {
                out.push(9);
                gtxn.put(out);
                site.put(out);
            }
            Message::RollbackAck { gtxn, site } => {
                out.push(10);
                gtxn.put(out);
                site.put(out);
            }
            Message::NewCoord { gtxn, coord } => {
                out.push(11);
                gtxn.put(out);
                coord.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Message::Begin {
                gtxn: GlobalTxnId::get(r)?,
                coord: r.u32()?,
            }),
            1 => Ok(Message::Dml {
                gtxn: GlobalTxnId::get(r)?,
                step: r.u32()?,
                command: Command::get(r)?,
            }),
            2 => Ok(Message::Prepare {
                gtxn: GlobalTxnId::get(r)?,
                sn: SerialNumber::get(r)?,
            }),
            3 => Ok(Message::Commit {
                gtxn: GlobalTxnId::get(r)?,
            }),
            4 => Ok(Message::Rollback {
                gtxn: GlobalTxnId::get(r)?,
            }),
            5 => Ok(Message::DmlResult {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
                step: r.u32()?,
                result: CommandResult::get(r)?,
            }),
            6 => Ok(Message::Failed {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
            }),
            7 => Ok(Message::Ready {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
            }),
            8 => Ok(Message::Refuse {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
                reason: RefuseReason::get(r)?,
            }),
            9 => Ok(Message::CommitAck {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
            }),
            10 => Ok(Message::RollbackAck {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
            }),
            11 => Ok(Message::NewCoord {
                gtxn: GlobalTxnId::get(r)?,
                coord: r.u32()?,
            }),
            tag => Err(WireError::BadTag {
                what: "Message",
                tag,
            }),
        }
    }
}

impl Wire for Ballot {
    fn put(&self, out: &mut Vec<u8>) {
        self.number.put(out);
        self.node.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Ballot {
            number: r.u32()?,
            node: r.u32()?,
        })
    }
}

impl Wire for Vote {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Vote::Ready => 0,
            Vote::Abort => 1,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Vote::Ready),
            1 => Ok(Vote::Abort),
            tag => Err(WireError::BadTag { what: "Vote", tag }),
        }
    }
}

impl Wire for Registration {
    fn put(&self, out: &mut Vec<u8>) {
        self.gtxn.put(out);
        self.coord.put(out);
        self.participants.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Registration {
            gtxn: GlobalTxnId::get(r)?,
            coord: r.u32()?,
            participants: <BTreeSet<SiteId> as Wire>::get(r)?,
        })
    }
}

impl Wire for AcceptedVote {
    fn put(&self, out: &mut Vec<u8>) {
        self.gtxn.put(out);
        self.site.put(out);
        self.ballot.put(out);
        self.vote.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AcceptedVote {
            gtxn: GlobalTxnId::get(r)?,
            site: SiteId::get(r)?,
            ballot: Ballot::get(r)?,
            vote: Vote::get(r)?,
        })
    }
}

impl Wire for PaxosMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PaxosMsg::Begin {
                gtxn,
                coord,
                participants,
            } => {
                out.push(0);
                gtxn.put(out);
                coord.put(out);
                participants.put(out);
            }
            PaxosMsg::Vote2a {
                gtxn,
                site,
                coord,
                vote,
            } => {
                out.push(1);
                gtxn.put(out);
                site.put(out);
                coord.put(out);
                vote.put(out);
            }
            PaxosMsg::Accepted {
                gtxn,
                site,
                ballot,
                vote,
                acceptor,
            } => {
                out.push(2);
                gtxn.put(out);
                site.put(out);
                ballot.put(out);
                vote.put(out);
                acceptor.put(out);
            }
            PaxosMsg::Prepare1a { ballot } => {
                out.push(3);
                ballot.put(out);
            }
            PaxosMsg::Promise1b {
                ballot,
                acceptor,
                registrations,
                accepted,
            } => {
                out.push(4);
                ballot.put(out);
                acceptor.put(out);
                registrations.put(out);
                accepted.put(out);
            }
            PaxosMsg::Propose2a {
                ballot,
                gtxn,
                site,
                vote,
            } => {
                out.push(5);
                ballot.put(out);
                gtxn.put(out);
                site.put(out);
                vote.put(out);
            }
            PaxosMsg::Clear { gtxn } => {
                out.push(6);
                gtxn.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(PaxosMsg::Begin {
                gtxn: GlobalTxnId::get(r)?,
                coord: r.u32()?,
                participants: <BTreeSet<SiteId> as Wire>::get(r)?,
            }),
            1 => Ok(PaxosMsg::Vote2a {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
                coord: r.u32()?,
                vote: Vote::get(r)?,
            }),
            2 => Ok(PaxosMsg::Accepted {
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
                ballot: Ballot::get(r)?,
                vote: Vote::get(r)?,
                acceptor: r.u32()?,
            }),
            3 => Ok(PaxosMsg::Prepare1a {
                ballot: Ballot::get(r)?,
            }),
            4 => Ok(PaxosMsg::Promise1b {
                ballot: Ballot::get(r)?,
                acceptor: r.u32()?,
                registrations: Vec::get(r)?,
                accepted: Vec::get(r)?,
            }),
            5 => Ok(PaxosMsg::Propose2a {
                ballot: Ballot::get(r)?,
                gtxn: GlobalTxnId::get(r)?,
                site: SiteId::get(r)?,
                vote: Vote::get(r)?,
            }),
            6 => Ok(PaxosMsg::Clear {
                gtxn: GlobalTxnId::get(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "PaxosMsg",
                tag,
            }),
        }
    }
}

impl Wire for CtrlMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            CtrlMsg::CgmRequest { gtxn, modes } => {
                out.push(0);
                gtxn.put(out);
                modes.put(out);
            }
            CtrlMsg::CgmAdmitted { gtxn } => {
                out.push(1);
                gtxn.put(out);
            }
            CtrlMsg::CgmVote { gtxn, sites } => {
                out.push(2);
                gtxn.put(out);
                sites.put(out);
            }
            CtrlMsg::CgmVoteResult { gtxn, ok } => {
                out.push(3);
                gtxn.put(out);
                ok.put(out);
            }
            CtrlMsg::CgmFinished { gtxn } => {
                out.push(4);
                gtxn.put(out);
            }
            CtrlMsg::Paxos { msg } => {
                out.push(5);
                msg.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(CtrlMsg::CgmRequest {
                gtxn: GlobalTxnId::get(r)?,
                modes: Vec::get(r)?,
            }),
            1 => Ok(CtrlMsg::CgmAdmitted {
                gtxn: GlobalTxnId::get(r)?,
            }),
            2 => Ok(CtrlMsg::CgmVote {
                gtxn: GlobalTxnId::get(r)?,
                sites: <BTreeSet<SiteId> as Wire>::get(r)?,
            }),
            3 => Ok(CtrlMsg::CgmVoteResult {
                gtxn: GlobalTxnId::get(r)?,
                ok: bool::get(r)?,
            }),
            4 => Ok(CtrlMsg::CgmFinished {
                gtxn: GlobalTxnId::get(r)?,
            }),
            5 => Ok(CtrlMsg::Paxos {
                msg: PaxosMsg::get(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "CtrlMsg",
                tag,
            }),
        }
    }
}

impl Wire for Item {
    fn put(&self, out: &mut Vec<u8>) {
        self.site.put(out);
        self.key.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Item::new(SiteId::get(r)?, r.u64()?))
    }
}

impl Wire for Txn {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            Txn::Global(g) => {
                out.push(0);
                g.put(out);
            }
            Txn::Local(LocalTxnId { site, n }) => {
                out.push(1);
                site.put(out);
                n.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Txn::Global(GlobalTxnId::get(r)?)),
            1 => Ok(Txn::Local(LocalTxnId {
                site: SiteId::get(r)?,
                n: r.u32()?,
            })),
            tag => Err(WireError::BadTag { what: "Txn", tag }),
        }
    }
}

impl Wire for OpKind {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            OpKind::Read(item) => {
                out.push(0);
                item.put(out);
            }
            OpKind::Write(item) => {
                out.push(1);
                item.put(out);
            }
            OpKind::Prepare(site) => {
                out.push(2);
                site.put(out);
            }
            OpKind::LocalCommit(site) => {
                out.push(3);
                site.put(out);
            }
            OpKind::LocalAbort(site) => {
                out.push(4);
                site.put(out);
            }
            OpKind::GlobalCommit => out.push(5),
            OpKind::GlobalAbort => out.push(6),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(OpKind::Read(Item::get(r)?)),
            1 => Ok(OpKind::Write(Item::get(r)?)),
            2 => Ok(OpKind::Prepare(SiteId::get(r)?)),
            3 => Ok(OpKind::LocalCommit(SiteId::get(r)?)),
            4 => Ok(OpKind::LocalAbort(SiteId::get(r)?)),
            5 => Ok(OpKind::GlobalCommit),
            6 => Ok(OpKind::GlobalAbort),
            tag => Err(WireError::BadTag {
                what: "OpKind",
                tag,
            }),
        }
    }
}

impl Wire for Op {
    fn put(&self, out: &mut Vec<u8>) {
        self.txn.put(out);
        self.incarnation.put(out);
        self.kind.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Op {
            txn: Txn::get(r)?,
            incarnation: r.u32()?,
            kind: OpKind::get(r)?,
        })
    }
}

/// The cluster envelope: everything one `mdbs-node` process sends another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// First frame on every fresh connection: who is talking. Consumed by
    /// the transport layer, never surfaced to the node loop.
    Hello {
        /// The connecting node's runtime id.
        node: u32,
    },
    /// A 2PC protocol message in flight between runtime nodes.
    Net {
        /// Sending runtime node.
        from: u32,
        /// Receiving runtime node.
        to: u32,
        /// The 2PC message.
        msg: Message,
    },
    /// A CGM control message in flight between runtime nodes.
    Ctrl {
        /// Sending runtime node.
        from: u32,
        /// Receiving runtime node.
        to: u32,
        /// The control message.
        ctrl: CtrlMsg,
    },
    /// Driver → coordinator: run this global transaction. The program is
    /// included so secondary coordinators need not re-derive the driver's
    /// admission order (they did pre-draw the same workload, but admission
    /// under the multiprogramming level is driver state).
    StartGlobal {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its program, grouped by site.
        program: Vec<(SiteId, Command)>,
    },
    /// Coordinator → driver: a global transaction settled.
    Finished {
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Its outcome.
        outcome: GlobalOutcome,
    },
    /// Driver → everyone: all globals settled; finish local work, quiesce,
    /// and report.
    Drain,
    /// Node → driver: this node's slice of the run, sent once quiesced.
    NodeReport {
        /// The reporting runtime node.
        node: u32,
        /// Every history operation recorded at this node, in local order.
        ops: Vec<Op>,
        /// Local transactions committed at this node (sites only).
        local_committed: u64,
        /// Local transactions aborted at this node (sites only).
        local_aborted: u64,
    },
    /// Driver → everyone: exit now.
    Shutdown,
}

impl WireMsg {
    /// The variant's source-level name. `mdbs-check`'s vocabulary lint
    /// cross-checks this list against the enum parsed from this file, so a
    /// new variant that forgets its name (or its codec arm) fails CI.
    pub fn variant_name(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "Hello",
            WireMsg::Net { .. } => "Net",
            WireMsg::Ctrl { .. } => "Ctrl",
            WireMsg::StartGlobal { .. } => "StartGlobal",
            WireMsg::Finished { .. } => "Finished",
            WireMsg::Drain => "Drain",
            WireMsg::NodeReport { .. } => "NodeReport",
            WireMsg::Shutdown => "Shutdown",
        }
    }

    /// One representative value per variant, with every field populated.
    /// Ground truth for the codec round-trip tests and the vocabulary
    /// inventory in `mdbs-check`.
    pub fn specimens() -> Vec<WireMsg> {
        let gtxn = GlobalTxnId(7);
        vec![
            WireMsg::Hello { node: 3 },
            WireMsg::Net {
                from: 1_000_000,
                to: 0,
                msg: Message::Commit { gtxn },
            },
            WireMsg::Ctrl {
                from: 1_000_000,
                to: 2_000_000,
                ctrl: CtrlMsg::CgmFinished { gtxn },
            },
            WireMsg::StartGlobal {
                gtxn,
                program: vec![(SiteId(0), Command::Update(KeySpec::Key(3), 1))],
            },
            WireMsg::Finished {
                gtxn,
                outcome: GlobalOutcome::Aborted,
            },
            WireMsg::Drain,
            WireMsg::NodeReport {
                node: 1,
                ops: vec![Op {
                    txn: Txn::Local(LocalTxnId {
                        site: SiteId(1),
                        n: 4,
                    }),
                    incarnation: 0,
                    kind: OpKind::Read(Item::new(SiteId(1), 9)),
                }],
                local_committed: 5,
                local_aborted: 2,
            },
            WireMsg::Shutdown,
        ]
    }
}

impl Wire for WireMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Hello { node } => {
                out.push(0);
                node.put(out);
            }
            WireMsg::Net { from, to, msg } => {
                out.push(1);
                from.put(out);
                to.put(out);
                msg.put(out);
            }
            WireMsg::Ctrl { from, to, ctrl } => {
                out.push(2);
                from.put(out);
                to.put(out);
                ctrl.put(out);
            }
            WireMsg::StartGlobal { gtxn, program } => {
                out.push(3);
                gtxn.put(out);
                program.put(out);
            }
            WireMsg::Finished { gtxn, outcome } => {
                out.push(4);
                gtxn.put(out);
                outcome.put(out);
            }
            WireMsg::Drain => out.push(5),
            WireMsg::NodeReport {
                node,
                ops,
                local_committed,
                local_aborted,
            } => {
                out.push(6);
                node.put(out);
                ops.put(out);
                local_committed.put(out);
                local_aborted.put(out);
            }
            WireMsg::Shutdown => out.push(7),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WireMsg::Hello { node: r.u32()? }),
            1 => Ok(WireMsg::Net {
                from: r.u32()?,
                to: r.u32()?,
                msg: Message::get(r)?,
            }),
            2 => Ok(WireMsg::Ctrl {
                from: r.u32()?,
                to: r.u32()?,
                ctrl: CtrlMsg::get(r)?,
            }),
            3 => Ok(WireMsg::StartGlobal {
                gtxn: GlobalTxnId::get(r)?,
                program: Vec::get(r)?,
            }),
            4 => Ok(WireMsg::Finished {
                gtxn: GlobalTxnId::get(r)?,
                outcome: GlobalOutcome::get(r)?,
            }),
            5 => Ok(WireMsg::Drain),
            6 => Ok(WireMsg::NodeReport {
                node: r.u32()?,
                ops: Vec::get(r)?,
                local_committed: r.u64()?,
                local_aborted: r.u64()?,
            }),
            7 => Ok(WireMsg::Shutdown),
            tag => Err(WireError::BadTag {
                what: "WireMsg",
                tag,
            }),
        }
    }
}

/// Encode one message as a bare payload (no frame header).
pub fn encode_msg(msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::new();
    msg.put(&mut out);
    out
}

/// Decode one message from a complete frame payload, rejecting leftovers.
pub fn decode_msg(payload: &[u8]) -> Result<WireMsg, WireError> {
    let mut r = Reader::new(payload);
    let msg = WireMsg::get(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::Trailing);
    }
    Ok(msg)
}

/// Encode a batch of messages as a version 2 frame payload: a `u32`
/// message count followed by the messages back-to-back. A batch of one —
/// or even zero — is legal; senders normally put singletons in version 1
/// frames instead, but the decoder accepts every size.
pub fn encode_batch(msgs: &[WireMsg]) -> Vec<u8> {
    let mut out = Vec::new();
    (msgs.len() as u32).put(&mut out);
    for msg in msgs {
        msg.put(&mut out);
    }
    out
}

/// Decode a batch payload (`encode_batch`), rejecting leftovers. Hostile
/// bytes — truncated, bit-flipped, oversized counts — surface as clean
/// [`WireError`]s, never panics, exactly like [`decode_msg`].
pub fn decode_batch(payload: &[u8]) -> Result<Vec<WireMsg>, WireError> {
    let mut r = Reader::new(payload);
    let n = r.count()?;
    let mut msgs = Vec::with_capacity(n);
    for _ in 0..n {
        msgs.push(WireMsg::get(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(WireError::Trailing);
    }
    Ok(msgs)
}

/// Decode a complete frame payload under its header version: a version 1
/// payload is one message, a version 2 payload is a batch. This is the
/// batch-aware read path — it accepts both formats interleaved on one
/// stream. Any other version byte is rejected here as a defense in depth
/// (the frame layer already refuses to surface such a frame).
pub fn decode_frame_payload(version: u8, payload: &[u8]) -> Result<Vec<WireMsg>, WireError> {
    match version {
        crate::frame::WIRE_VERSION => Ok(vec![decode_msg(payload)?]),
        crate::frame::WIRE_VERSION_BATCH => decode_batch(payload),
        tag => Err(WireError::BadTag {
            what: "frame version",
            tag,
        }),
    }
}
