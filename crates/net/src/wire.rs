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
//!   tag followed by the variant's fields in the order its `wire_enum!`
//!   row lists them; `Vec`/sets are a `u32` count followed by the items;
//!   strings are a `u32` byte length followed by UTF-8.
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
    /// An enum's tag bytes, in variant order (empty for every other type).
    const TAGS: &'static [u8] = &[];
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

/// One enum's wire layout, written once: `tag => Variant`, its fields in
/// wire order. Both directions of the codec, the [`WireError::BadTag`] arm
/// and [`Wire::TAGS`] come from the same row, so they cannot disagree, and
/// the generated `match self` has no wildcard: a variant added to the enum
/// and not to its table does not compile.
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($elem:ident),* ))?
    ),* $(,)? }) => {
        impl Wire for $ty {
            const TAGS: &'static [u8] = &[$($tag),*];
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($elem),* ))? => {
                        out.push($tag);
                        $($($field.put(out);)*)?
                        $($($elem.put(out);)*)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $field = Wire::get(r)?;)*)?
                        $($(let $elem = Wire::get(r)?;)*)?
                        Ok($ty::$variant $({ $($field),* })? $(( $($elem),* ))?)
                    })*
                    tag => Err(WireError::BadTag {
                        what: stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
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

wire_enum!(KeySpec {
    0 => Key(k),
    1 => Range(lo, hi),
});

wire_enum!(Command {
    0 => Select(spec),
    1 => Update(spec, delta),
    2 => Assign(spec, v),
    3 => Insert(k, v),
    4 => Delete(spec),
});

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

wire_enum!(RefuseReason {
    0 => SnOutOfOrder,
    1 => AliveIntervalDisjoint,
    2 => NotAlive,
});

wire_enum!(GlobalOutcome {
    0 => Committed,
    1 => Aborted,
});

wire_enum!(SiteLockMode {
    0 => Read,
    1 => Update,
});

wire_enum!(Message {
    0 => Begin { gtxn, coord },
    1 => Dml { gtxn, step, command },
    12 => BeginDml { gtxn, coord, step, command },
    2 => Prepare { gtxn, sn },
    3 => Commit { gtxn },
    4 => Rollback { gtxn },
    5 => DmlResult { gtxn, site, step, result },
    6 => Failed { gtxn, site },
    7 => Ready { gtxn, site },
    8 => Refuse { gtxn, site, reason },
    9 => CommitAck { gtxn, site },
    10 => RollbackAck { gtxn, site },
    11 => NewCoord { gtxn, coord },
});

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

wire_enum!(Vote {
    0 => Ready,
    1 => Abort,
});

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

wire_enum!(PaxosMsg {
    0 => Begin { gtxn, coord, participants },
    1 => Vote2a { gtxn, site, coord, vote },
    2 => Accepted { gtxn, ballot, acceptor },
    3 => Prepare1a { ballot },
    4 => Promise1b { ballot, acceptor, registrations, accepted },
    5 => Propose2a { ballot, gtxn, votes },
    6 => Clear { gtxn },
    7 => ClearThenBegin { cleared, gtxn, coord, participants },
});

wire_enum!(CtrlMsg {
    0 => CgmRequest { gtxn, modes },
    1 => CgmAdmitted { gtxn },
    2 => CgmVote { gtxn, sites },
    3 => CgmVoteResult { gtxn, ok },
    4 => CgmFinished { gtxn },
    5 => Paxos { msg },
});

impl Wire for Item {
    fn put(&self, out: &mut Vec<u8>) {
        self.site.put(out);
        self.key.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Item::new(SiteId::get(r)?, r.u64()?))
    }
}

impl Wire for LocalTxnId {
    fn put(&self, out: &mut Vec<u8>) {
        self.site.put(out);
        self.n.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LocalTxnId {
            site: SiteId::get(r)?,
            n: r.u32()?,
        })
    }
}

wire_enum!(Txn {
    0 => Global(g),
    1 => Local(l),
});

wire_enum!(OpKind {
    0 => Read(item),
    1 => Write(item),
    2 => Prepare(site),
    3 => LocalCommit(site),
    4 => LocalAbort(site),
    5 => GlobalCommit,
    6 => GlobalAbort,
});

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
wire_enum!(WireMsg {
    0 => Hello { node },
    1 => Net { from, to, msg },
    2 => Ctrl { from, to, ctrl },
    3 => StartGlobal { gtxn, program },
    4 => Finished { gtxn, outcome },
    5 => Drain,
    6 => NodeReport { node, ops, local_committed, local_aborted },
    7 => Shutdown,
});

impl WireMsg {
    /// One representative value per variant, in tag order, with every
    /// field populated: what the codec tests iterate. rustc cannot see a
    /// variant missing here; `codec.rs` holds the list to [`Wire::TAGS`].
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
