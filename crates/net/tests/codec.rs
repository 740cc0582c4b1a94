//! Wire-codec correctness: every protocol message round-trips bit-exact,
//! and no sequence of hostile bytes — truncated, bit-flipped, oversized,
//! or random — can panic the decoder. A transport that dies on a corrupt
//! frame is a transport that turns one flaky link into a dead node.

use mdbs_baselines::SiteLockMode;
use mdbs_consensus::{PaxosMsg, Vote};
use mdbs_dtm::{GlobalOutcome, Message, RefuseReason};
use mdbs_histories::{GlobalTxnId, Item, LocalTxnId, Op, OpKind, SiteId, Txn};
use mdbs_ldbs::{Command, CommandResult, KeySpec};
use mdbs_net::frame::{
    decode_frames, encode_batch_frame, encode_frame, Frame, FrameDecoder, FrameError,
    MAX_FRAME_LEN, WIRE_VERSION, WIRE_VERSION_BATCH,
};
use mdbs_net::wire::{
    decode_batch, decode_frame_payload, decode_msg, encode_batch, encode_msg, Wire, WireError,
    WireMsg,
};
use mdbs_runtime::CtrlMsg;
use proptest::prelude::*;

// One specimen per variant, in tag order, for the enums that only ever
// travel inside a message; `Message`, `CtrlMsg`, `PaxosMsg` and `WireMsg`
// carry their own `specimens()`. There is no other inventory: the suite
// below is built from these lists, and `every_codec_table_row_has_a_specimen`
// holds each of them to its codec table.
const KEY_SPECS: [KeySpec; 2] = [KeySpec::Key(3), KeySpec::Range(2, 9)];
const COMMANDS: [Command; 5] = [
    Command::Select(KeySpec::Key(3)),
    Command::Update(KeySpec::Range(0, u64::MAX), -17),
    Command::Assign(KeySpec::Key(5), i64::MAX),
    Command::Insert(11, -1),
    Command::Delete(KeySpec::Range(4, 6)),
];
const REASONS: [RefuseReason; 3] = [
    RefuseReason::SnOutOfOrder,
    RefuseReason::AliveIntervalDisjoint,
    RefuseReason::NotAlive,
];
const OUTCOMES: [GlobalOutcome; 2] = [GlobalOutcome::Committed, GlobalOutcome::Aborted];
const LOCK_MODES: [SiteLockMode; 2] = [SiteLockMode::Read, SiteLockMode::Update];
const VOTES: [Vote; 2] = [Vote::Ready, Vote::Abort];
const TXNS: [Txn; 2] = [
    Txn::Global(GlobalTxnId(7)),
    Txn::Local(LocalTxnId {
        site: SiteId(2),
        n: 5,
    }),
];
const OP_KINDS: [OpKind; 7] = [
    OpKind::Read(Item::new(SiteId(0), 3)),
    OpKind::Write(Item::new(SiteId(1), u64::MAX)),
    OpKind::Prepare(SiteId(2)),
    OpKind::LocalCommit(SiteId(0)),
    OpKind::LocalAbort(SiteId(1)),
    OpKind::GlobalCommit,
    OpKind::GlobalAbort,
];

/// The first encoded byte of each value: its enum's wire tag.
fn tags<T: Wire>(values: &[T]) -> Vec<u8> {
    let tag = |value: &T| {
        let mut out = Vec::new();
        value.put(&mut out);
        out[0]
    };
    values.iter().map(tag).collect()
}

/// rustc holds every `match` over these enums to the declaration — the
/// codec tables and the handlers have no wildcard arm. A specimen list is
/// a `vec!`, which it cannot see: a variant that was given a table row and
/// no specimen fails here, by name of the enum and the missing tag.
#[test]
fn every_codec_table_row_has_a_specimen() {
    assert_eq!(tags(&Message::specimens()), Message::TAGS, "Message");
    assert_eq!(tags(&CtrlMsg::specimens()), CtrlMsg::TAGS, "CtrlMsg");
    assert_eq!(tags(&PaxosMsg::specimens()), PaxosMsg::TAGS, "PaxosMsg");
    assert_eq!(tags(&WireMsg::specimens()), WireMsg::TAGS, "WireMsg");
    assert_eq!(tags(&KEY_SPECS), KeySpec::TAGS, "KeySpec");
    assert_eq!(tags(&COMMANDS), Command::TAGS, "Command");
    assert_eq!(tags(&REASONS), RefuseReason::TAGS, "RefuseReason");
    assert_eq!(tags(&OUTCOMES), GlobalOutcome::TAGS, "GlobalOutcome");
    assert_eq!(tags(&LOCK_MODES), SiteLockMode::TAGS, "SiteLockMode");
    assert_eq!(tags(&VOTES), Vote::TAGS, "Vote");
    assert_eq!(tags(&TXNS), Txn::TAGS, "Txn");
    assert_eq!(tags(&OP_KINDS), OpKind::TAGS, "OpKind");
}

/// What every test below runs over: each enum's specimens, in the places
/// the envelope carries them, plus the payloads no specimen has — extreme
/// integers, empty collections, the other `bool`.
fn all_wire_msgs() -> Vec<WireMsg> {
    let (gtxn, site) = (GlobalTxnId(9), SiteId(2));
    let net = |msg| WireMsg::Net {
        from: 1_000_001,
        to: 0,
        msg,
    };
    let ctrl = |ctrl| WireMsg::Ctrl {
        from: 1_000_000,
        to: 2_000_000,
        ctrl,
    };
    let paxos = |msg| ctrl(CtrlMsg::Paxos { msg });
    let dml = |command| {
        net(Message::Dml {
            gtxn,
            step: 2,
            command,
        })
    };

    let mut msgs = WireMsg::specimens();
    msgs.extend(Message::specimens().into_iter().map(net));
    msgs.extend(CtrlMsg::specimens().into_iter().map(ctrl));
    msgs.extend(PaxosMsg::specimens().into_iter().map(paxos));
    msgs.extend(KEY_SPECS.map(|spec| dml(Command::Select(spec))));
    msgs.extend(COMMANDS.map(dml));
    msgs.extend(REASONS.map(|reason| net(Message::Refuse { gtxn, site, reason })));
    msgs.extend(OUTCOMES.map(|outcome| WireMsg::Finished { gtxn, outcome }));
    msgs.push(ctrl(CtrlMsg::CgmRequest {
        gtxn,
        modes: LOCK_MODES.map(|mode| (site, mode)).to_vec(),
    }));
    msgs.extend(VOTES.map(|vote| {
        paxos(PaxosMsg::Vote2a {
            gtxn,
            site,
            coord: 1_000_000,
            vote,
        })
    }));
    let under_each_txn = |kind| {
        TXNS.map(|txn| Op {
            txn,
            incarnation: 3,
            kind,
        })
    };
    msgs.push(WireMsg::NodeReport {
        node: 2,
        ops: OP_KINDS.into_iter().flat_map(under_each_txn).collect(),
        local_committed: 12,
        local_aborted: 3,
    });

    msgs.push(net(Message::DmlResult {
        gtxn,
        site,
        step: 3,
        result: CommandResult {
            rows: vec![(1, -5), (2, 0), (u64::MAX, i64::MIN)],
            wrote: vec![7, 8],
        },
    }));
    msgs.push(WireMsg::StartGlobal {
        gtxn,
        program: Vec::new(),
    });
    msgs.push(WireMsg::NodeReport {
        node: 2_000_000,
        ops: Vec::new(),
        local_committed: 0,
        local_aborted: 0,
    });
    msgs.push(ctrl(CtrlMsg::CgmVoteResult { gtxn, ok: true }));
    msgs
}

#[test]
fn every_wire_msg_round_trips_bit_exact() {
    for msg in all_wire_msgs() {
        let payload = encode_msg(&msg);
        let back = decode_msg(&payload).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
        assert_eq!(back, msg);
        // And through the framing layer.
        let frame = encode_frame(&payload);
        let (frames, leftover) = decode_frames(&frame).expect("well-formed frame");
        assert_eq!(leftover, 0);
        assert_eq!(frames.len(), 1);
        assert_eq!(decode_msg(&frames[0]).expect("frame payload"), msg);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The data format, pinned. Both digests were first recorded from the
/// hand-written `put` / `get` pairs the codec tables replaced (PR 19's
/// parent): a table edit that moves a byte of any message is a format
/// change and has to say so here. Changes so far:
/// - the suite: `PaxosMsg::Accepted` lost its `site` and `vote` (phase 2b
///   is one report per acceptor per transaction), and `Propose2a` carries
///   every participant's vote instead of one. `WireMsg::specimens` holds
///   no Paxos message, so its digest did not move.
/// - the suite: `Message::BeginDml` (tag 12) joined it. Without its
///   specimen the suite still hashes to the previous pin,
///   `0xee5e_2ad2_7651_842a`, so no byte of another message moved.
/// - the suite: `PaxosMsg::ClearThenBegin` (tag 7) joined it, the
///   registration that carries the compaction of settled transactions.
///   Without its specimen the suite still hashes to the previous pin,
///   `0x10e3_6c6a_9da6_fffa`.
#[test]
fn the_data_format_is_pinned() {
    let specimens = fnv1a(&encode_batch(&WireMsg::specimens()));
    assert_eq!(specimens, 0x4db3_419a_bdde_aae5, "got {specimens:#018x}");
    let suite = fnv1a(&encode_batch(&all_wire_msgs()));
    assert_eq!(suite, 0x4c59_deaf_4136_bd66, "got {suite:#018x}");
}

#[test]
fn trailing_bytes_after_a_message_are_rejected() {
    let mut payload = encode_msg(&WireMsg::Drain);
    payload.push(0);
    assert_eq!(decode_msg(&payload), Err(WireError::Trailing));
}

#[test]
fn every_truncation_of_every_message_errs_cleanly() {
    // Exhaustive, not sampled: every strict prefix of every payload must
    // fail with a clean error (no panic, no bogus success).
    for msg in all_wire_msgs() {
        let payload = encode_msg(&msg);
        for cut in 0..payload.len() {
            let r = decode_msg(&payload[..cut]);
            assert!(
                r.is_err(),
                "{msg:?} truncated to {cut}/{} bytes decoded as {r:?}",
                payload.len()
            );
        }
    }
}

#[test]
fn oversized_frame_header_is_rejected() {
    let mut frame = encode_frame(&encode_msg(&WireMsg::Drain));
    frame[5..9].copy_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    let mut dec = FrameDecoder::new();
    dec.extend(&frame);
    assert!(matches!(dec.next_frame(), Err(FrameError::Oversized(_))));
}

#[test]
fn huge_collection_count_is_rejected_without_allocating() {
    // A NodeReport whose ops count claims u32::MAX entries but carries no
    // bytes: the count sanity check must fire before any allocation.
    let mut payload = Vec::new();
    payload.push(6u8); // NodeReport tag
    payload.extend_from_slice(&2u32.to_le_bytes()); // node
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // ops count
    assert_eq!(decode_msg(&payload), Err(WireError::BadLen));
}

#[test]
fn batch_payload_rejects_trailing_bytes_and_unknown_versions() {
    let batch = vec![WireMsg::Drain, WireMsg::Shutdown];
    let mut payload = encode_batch(&batch);
    assert_eq!(decode_batch(&payload), Ok(batch.clone()));
    payload.push(0);
    assert_eq!(decode_batch(&payload), Err(WireError::Trailing));
    // decode_frame_payload dispatches on the frame version byte; anything
    // but v1/v2 is a clean error, not a guess.
    let payload = encode_batch(&batch);
    assert_eq!(
        decode_frame_payload(WIRE_VERSION_BATCH, &payload),
        Ok(batch)
    );
    assert!(decode_frame_payload(3, &payload).is_err());
    assert_eq!(
        decode_frame_payload(WIRE_VERSION, &encode_msg(&WireMsg::Drain)),
        Ok(vec![WireMsg::Drain])
    );
}

#[test]
fn batch_count_overclaim_is_rejected_without_allocating() {
    // A batch claiming u32::MAX messages but carrying none: the count
    // sanity check must fire before any allocation.
    let payload = u32::MAX.to_le_bytes().to_vec();
    assert_eq!(decode_batch(&payload), Err(WireError::BadLen));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flipped_frames_never_decode_and_never_panic(
        pick in 0usize..1000,
        bit_seed in 0usize..100_000,
    ) {
        let msgs = all_wire_msgs();
        let msg = &msgs[pick % msgs.len()];
        let mut frame = encode_frame(&encode_msg(msg));
        let bit = bit_seed % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        match dec.next_frame() {
            // A flip in the length field can declare a longer frame: the
            // decoder just waits for bytes that never come. Everything
            // else must be caught (magic, version, cap, CRC).
            Ok(None) | Err(_) => {}
            Ok(Some(payload)) => {
                panic!("corrupt frame decoded: bit {bit} of {msg:?} -> {payload:?}")
            }
        }
    }

    #[test]
    fn truncated_frames_wait_rather_than_panic(
        pick in 0usize..1000,
        cut_seed in 0usize..100_000,
    ) {
        let msgs = all_wire_msgs();
        let msg = &msgs[pick % msgs.len()];
        let frame = encode_frame(&encode_msg(msg));
        let cut = cut_seed % frame.len();
        let mut dec = FrameDecoder::new();
        dec.extend(&frame[..cut]);
        prop_assert_eq!(dec.next_frame(), Ok(None), "prefix of a valid frame");
    }

    #[test]
    fn random_bytes_never_panic_the_frame_decoder(
        bytes in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..200),
    ) {
        // Whatever decode_frames returns is fine; returning is the test.
        let _ = decode_frames(&bytes);
        let mut dec = FrameDecoder::new();
        for chunk in bytes.chunks(7) {
            dec.extend(chunk);
            if dec.next_frame().is_err() {
                break;
            }
        }
    }

    #[test]
    fn random_payloads_never_panic_the_message_decoder(
        bytes in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..200),
    ) {
        let _ = decode_msg(&bytes);
    }

    // --- WireBatch (frame v2) coverage -------------------------------

    #[test]
    fn batches_of_every_size_round_trip_bit_exact(
        start in 0usize..1000,
        len in 0usize..12,
    ) {
        // Sizes 0, 1 and N, sliding over the whole message suite.
        let msgs = all_wire_msgs();
        let batch: Vec<WireMsg> = (0..len)
            .map(|i| msgs[(start + i) % msgs.len()].clone())
            .collect();
        let payload = encode_batch(&batch);
        prop_assert_eq!(decode_batch(&payload), Ok(batch.clone()));

        // And through the v2 framing layer.
        let frame = encode_batch_frame(&payload);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        let Frame { version, payload } =
            dec.next_frame_versioned().expect("clean").expect("whole frame");
        prop_assert_eq!(version, WIRE_VERSION_BATCH);
        prop_assert_eq!(decode_frame_payload(version, &payload), Ok(batch));
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn every_truncation_of_a_batch_errs_cleanly(
        start in 0usize..1000,
        len in 0usize..6,
        cut_seed in 0usize..100_000,
    ) {
        let msgs = all_wire_msgs();
        let batch: Vec<WireMsg> = (0..len)
            .map(|i| msgs[(start + i) % msgs.len()].clone())
            .collect();
        let payload = encode_batch(&batch);
        let cut = cut_seed % payload.len().max(1);
        // No panic, no bogus success: a strict prefix must err (the empty
        // batch's payload is its 4-byte count, so every cut is short).
        prop_assert!(decode_batch(&payload[..cut]).is_err());
    }

    #[test]
    fn bit_flipped_batch_frames_never_decode_and_never_panic(
        start in 0usize..1000,
        len in 1usize..6,
        bit_seed in 0usize..1_000_000,
    ) {
        let msgs = all_wire_msgs();
        let batch: Vec<WireMsg> = (0..len)
            .map(|i| msgs[(start + i) % msgs.len()].clone())
            .collect();
        let mut frame = encode_batch_frame(&encode_batch(&batch));
        let bit = bit_seed % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        match dec.next_frame_versioned() {
            // A flip in the length field can declare a longer frame: the
            // decoder just waits. Everything else — magic, version, cap,
            // and any payload flip — is caught by the header checks + CRC.
            Ok(None) | Err(_) => {}
            Ok(Some(f)) => panic!("corrupt batch frame decoded: bit {bit} -> {f:?}"),
        }
    }

    #[test]
    fn v1_and_v2_frames_interop_on_one_stream(
        pick in 0usize..1000,
        len in 1usize..6,
        chunk in 1usize..40,
    ) {
        // A v1 single-message frame decoded by the batch-aware reader,
        // then a v2 batch, then v1 again — all on one arbitrarily-chunked
        // stream.
        let msgs = all_wire_msgs();
        let single = msgs[pick % msgs.len()].clone();
        let batch: Vec<WireMsg> = (0..len)
            .map(|i| msgs[(pick + i) % msgs.len()].clone())
            .collect();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&encode_msg(&single)));
        stream.extend_from_slice(&encode_batch_frame(&encode_batch(&batch)));
        stream.extend_from_slice(&encode_frame(&encode_msg(&WireMsg::Drain)));

        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<WireMsg>> = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            while let Some(f) = dec.next_frame_versioned().expect("clean stream") {
                got.push(decode_frame_payload(f.version, &f.payload).expect("valid payload"));
            }
        }
        prop_assert_eq!(
            got,
            vec![vec![single], batch, vec![WireMsg::Drain]]
        );
    }

    #[test]
    fn valid_messages_survive_arbitrary_chunking(
        pick in 0usize..1000,
        chunk in 1usize..40,
    ) {
        let msgs = all_wire_msgs();
        let msg = &msgs[pick % msgs.len()];
        let mut stream = Vec::new();
        for m in [msg, &WireMsg::Drain] {
            stream.extend_from_slice(&encode_frame(&encode_msg(m)));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            while let Some(payload) = dec.next_frame().expect("clean stream") {
                got.push(decode_msg(&payload).expect("valid payload"));
            }
        }
        prop_assert_eq!(got.len(), 2);
        prop_assert_eq!(&got[0], msg);
        prop_assert_eq!(&got[1], &WireMsg::Drain);
    }
}
