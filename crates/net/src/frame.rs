//! The framing layer: how a byte stream is cut into messages.
//!
//! Every frame is a 13-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MDBN"
//! 4       1     version (1 = single message, 2 = batch)
//! 5       4     payload length, little-endian, <= MAX_FRAME_LEN
//! 9       4     CRC32 (IEEE) of the payload, little-endian
//! 13      len   payload
//! ```
//!
//! A **version 1** payload is one `wire::WireMsg`; a **version 2** payload
//! is a `wire` batch: a `u32` message count followed by that many
//! back-to-back `WireMsg` encodings (see `wire::encode_batch`). Both
//! versions share the header layout, so one [`FrameDecoder`] handles a
//! stream that interleaves them freely — the sender coalesces when it can
//! and falls back to single-message frames when it can't.
//!
//! The decoder is incremental — feed it whatever `read()` returned and
//! take complete frames out — and strict: bad magic, an unknown version,
//! an oversized length, or a CRC mismatch is a [`FrameError`], and the
//! right response is to sever the connection (once framing is lost there
//! is no way to resynchronize a TCP stream). Truncation is not an error,
//! just an incomplete frame; it only becomes one when the peer closes
//! mid-frame.

use std::fmt;

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"MDBN";
/// Wire version for a single-message payload (the v1 format every build
/// has always spoken).
pub const WIRE_VERSION: u8 = 1;
/// Wire version for a batch payload: one CRC-framed header carrying many
/// messages.
pub const WIRE_VERSION_BATCH: u8 = 2;
/// Header size in bytes: magic + version + length + CRC.
pub const HEADER_LEN: usize = 13;
/// Hard cap on a payload. Generous — a full node report for a large run
/// is far below this — but it bounds what a corrupt length prefix can
/// make the decoder allocate.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a byte stream failed framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte was not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The payload CRC did not match the header.
    BadCrc {
        /// CRC declared in the header.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::BadCrc { want, got } => {
                write!(
                    f,
                    "frame crc mismatch: header {want:#010x}, payload {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // mdbs-check: allow(panic-freedom, "in bounds: `i < 256` is the loop condition, `table` has 256 slots")
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        // mdbs-check: allow(panic-freedom, "in bounds: the index is masked with 0xFF, the table has 256 slots")
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wrap a single-message payload in a version 1 frame.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_FRAME_LEN`] — encoding oversized frames is
/// a local programming error, not a peer's.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_versioned(WIRE_VERSION, payload, &mut out);
    out
}

/// Wrap a batch payload (`wire::encode_batch`) in a version 2 frame.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_FRAME_LEN`] — encoding oversized frames is
/// a local programming error, not a peer's.
pub fn encode_batch_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_versioned(WIRE_VERSION_BATCH, payload, &mut out);
    out
}

/// [`encode_frame`] into a caller-owned buffer (cleared first), so a hot
/// writer loop can reuse one allocation across frames.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    encode_frame_versioned(WIRE_VERSION, payload, out);
}

/// [`encode_batch_frame`] into a caller-owned buffer (cleared first).
pub fn encode_batch_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    encode_frame_versioned(WIRE_VERSION_BATCH, payload, out);
}

fn encode_frame_versioned(version: u8, payload: &[u8], out: &mut Vec<u8>) {
    // mdbs-check: allow(panic-freedom, "encode side, over this node's own payload, never a peer's bytes: the writer closes a batch at BATCH_SOFT_BYTES = 1 MiB, a sixteenth of the cap, and a frame past the cap would be refused by every receiver and retransmitted forever — dying here is the bounded failure")
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "refusing to encode a {}-byte frame (cap {MAX_FRAME_LEN})",
        payload.len()
    );
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One complete frame out of the decoder: which payload format the header
/// declared, and the CRC-verified payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// [`WIRE_VERSION`] or [`WIRE_VERSION_BATCH`].
    pub version: u8,
    /// The payload (one message, or one batch of messages).
    pub payload: Vec<u8>,
}

/// A little-endian `u32` at `offset`, or `None` if the buffer is short.
fn read_le_u32(buf: &[u8], offset: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(offset..offset.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Incremental frame parser over an append-only buffer.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by [`next_frame`].
    ///
    /// [`next_frame`]: FrameDecoder::next_frame
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete **version 1** payload, if one is buffered.
    ///
    /// This is the legacy single-message reader: a batch frame in the
    /// stream is a clean [`FrameError::BadVersion`] (sever the
    /// connection), never a panic or a misread. Batch-aware readers use
    /// [`next_frame_versioned`].
    ///
    /// `Ok(None)` means "need more bytes"; an `Err` means the stream is
    /// unrecoverably mis-framed and the connection should be dropped.
    ///
    /// [`next_frame_versioned`]: FrameDecoder::next_frame_versioned
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        match self.next_frame_versioned()? {
            Some(Frame {
                version: WIRE_VERSION,
                payload,
            }) => Ok(Some(payload)),
            Some(Frame { version, .. }) => Err(FrameError::BadVersion(version)),
            None => Ok(None),
        }
    }

    /// Pop the next complete frame — single-message or batch — if one is
    /// buffered. This is the batch-aware reader: version 1 and version 2
    /// frames may interleave freely on one stream.
    ///
    /// `Ok(None)` means "need more bytes"; an `Err` means the stream is
    /// unrecoverably mis-framed and the connection should be dropped.
    pub fn next_frame_versioned(&mut self) -> Result<Option<Frame>, FrameError> {
        // Validate what we have of the magic eagerly — even before a full
        // header — so garbage is rejected without waiting for more bytes.
        // The zip stops at the shorter side, so a matching partial prefix
        // just falls through to "need more".
        if self.buf.iter().zip(MAGIC.iter()).any(|(a, b)| a != b) {
            let mut m = [0u8; 4];
            for (slot, &b) in m.iter_mut().zip(self.buf.iter()) {
                *slot = b;
            }
            return Err(FrameError::BadMagic(m));
        }
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        // The header is complete from here on; every read still goes
        // through `get` so a logic slip degrades to "need more bytes"
        // instead of a panic.
        let version = match self.buf.get(4) {
            Some(&v) if v == WIRE_VERSION || v == WIRE_VERSION_BATCH => v,
            Some(&v) => return Err(FrameError::BadVersion(v)),
            None => return Ok(None),
        };
        let Some(len) = read_le_u32(&self.buf, 5) else {
            return Ok(None);
        };
        if len as usize > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        let Some(want_crc) = read_le_u32(&self.buf, 9) else {
            return Ok(None);
        };
        let total = HEADER_LEN + len as usize;
        let Some(payload) = self.buf.get(HEADER_LEN..total) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        let got = crc32(&payload);
        if got != want_crc {
            return Err(FrameError::BadCrc {
                want: want_crc,
                got,
            });
        }
        self.buf.drain(..total);
        Ok(Some(Frame { version, payload }))
    }
}

/// Decode every complete frame in `bytes` at once (convenience for tests
/// and one-shot buffers). Returns the payloads plus the count of leftover
/// bytes that did not form a complete frame.
pub fn decode_frames(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, usize), FrameError> {
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    let mut out = Vec::new();
    while let Some(p) = dec.next_frame()? {
        out.push(p);
    }
    Ok((out, dec.buffered()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trips_through_incremental_decoder() {
        let payload = b"hello multidatabase".to_vec();
        let frame = encode_frame(&payload);
        // Feed one byte at a time: truncation must read as "need more",
        // never as an error, until the last byte lands.
        let mut dec = FrameDecoder::new();
        for (i, b) in frame.iter().enumerate() {
            dec.extend(&[*b]);
            let got = dec.next_frame().expect("well-formed prefix");
            if i + 1 < frame.len() {
                assert!(got.is_none(), "complete frame after {} bytes?", i + 1);
            } else {
                assert_eq!(got, Some(payload.clone()));
            }
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_magic_is_rejected_before_full_header() {
        let mut dec = FrameDecoder::new();
        dec.extend(b"HTTP");
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
        // Even a single wrong byte is enough.
        let mut dec = FrameDecoder::new();
        dec.extend(b"X");
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut frame = encode_frame(b"x");
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut frame = encode_frame(b"certify me");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn batch_frame_round_trips_and_interleaves_with_v1() {
        let mut bytes = encode_frame(b"solo");
        bytes.extend_from_slice(&encode_batch_frame(b"batchy payload"));
        bytes.extend_from_slice(&encode_frame(b"solo again"));
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(
            dec.next_frame_versioned().expect("clean"),
            Some(Frame {
                version: WIRE_VERSION,
                payload: b"solo".to_vec()
            })
        );
        assert_eq!(
            dec.next_frame_versioned().expect("clean"),
            Some(Frame {
                version: WIRE_VERSION_BATCH,
                payload: b"batchy payload".to_vec()
            })
        );
        assert_eq!(
            dec.next_frame_versioned().expect("clean"),
            Some(Frame {
                version: WIRE_VERSION,
                payload: b"solo again".to_vec()
            })
        );
        assert_eq!(dec.next_frame_versioned().expect("clean"), None);
    }

    #[test]
    fn legacy_reader_rejects_batch_frames_cleanly() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_batch_frame(b"newer than you"));
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::BadVersion(WIRE_VERSION_BATCH))
        );
    }

    #[test]
    fn corrupt_batch_payload_fails_crc() {
        let mut frame = encode_batch_frame(b"group commit");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert!(matches!(
            dec.next_frame_versioned(),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn back_to_back_frames_split_cleanly() {
        let mut bytes = encode_frame(b"one");
        bytes.extend_from_slice(&encode_frame(b"two"));
        bytes.extend_from_slice(&encode_frame(b"three")[..7]);
        let (frames, leftover) = decode_frames(&bytes).expect("clean stream");
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(leftover, 7);
    }
}
