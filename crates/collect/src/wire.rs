//! The wire protocol between the RacketStore app and the collection server.
//!
//! The real platform shipped compressed snapshot files over TLS and
//! validated each transfer with a content hash returned by the server
//! (§3, "Data Buffer Module"). This module implements the framing layer:
//! length-prefixed binary frames with a CRC32 trailer, plus the message
//! set — sign-in (participant-code gating), snapshot upload and the hash
//! acknowledgement that lets the app delete its local file.
//!
//! The full byte-level specification (frame layout, fault model,
//! retry/backoff state machine, worked example) lives in `PROTOCOL.md` at
//! the repository root; the summary:
//!
//! ```text
//! +-------+---------+------+-------+--------+----------------+-------+
//! | magic | version | type | seq   | length | payload        | crc32 |
//! | u16   | u8      | u8   | u32   | u32    | length bytes   | u32   |
//! +-------+---------+------+-------+--------+----------------+-------+
//! ```
//!
//! All integers are little-endian. The CRC covers everything from the
//! version byte through the end of the payload (bytes `2..12+length`), so
//! corruption of the type, sequence number or length is detected alongside
//! payload corruption; only the magic itself is outside the CRC (its
//! corruption surfaces as [`WireError::BadMagic`]).
//!
//! `seq` is a per-connection frame sequence number. Every *transmission*
//! (including a retransmission of the same message) carries a fresh,
//! strictly increasing number; a receiver in strict mode
//! ([`FrameCodec::strict`]) accepts a frame iff `seq >=` the next expected
//! value and silently discards the rest as duplicates or stale reordered
//! copies — the frame-layer half of the idempotency contract (the
//! application-layer half is the server's upload-file dedup). Lenient
//! codecs ([`FrameCodec::new`]) ignore `seq`, which is appropriate over
//! transports that already guarantee exactly-once ordered delivery (TCP).
//!
//! [`FrameCodec`] is an incremental (sans-IO) decoder: feed it bytes as
//! they arrive on any transport, pull frames out as they complete.

use crate::hash::crc32;
use bytes::{Buf, BytesMut};
use racket_types::{InstallId, ParticipantId};

/// Frame magic: "RS" (RacketStore).
pub const MAGIC: u16 = 0x5253;
/// Protocol version. Version 2 added the `seq` header field and extended
/// the CRC to cover the header (see `PROTOCOL.md` for the v1 → v2 delta).
pub const VERSION: u8 = 2;
/// Maximum payload size (a rotated fast-snapshot file is ~100 KB before
/// compression; 4 MiB leaves ample slack while bounding memory).
pub const MAX_PAYLOAD: usize = 4 * 1024 * 1024;

/// Fixed header size: magic + version + type + seq + length.
const HEADER: usize = 2 + 1 + 1 + 4 + 4;
/// CRC trailer size.
const TRAILER: usize = 4;
/// Offset of the first CRC-covered byte (the version field).
const CRC_START: usize = 2;

/// A decoded frame: message type byte, sequence number, raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type discriminant.
    pub msg_type: u8,
    /// Per-connection frame sequence number.
    pub seq: u32,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: sign in with the recruitment code. The server
    /// validates the participant ID; data collection is gated on success
    /// (§3 "sign-in interface").
    SignIn {
        /// The 6-digit recruitment code.
        participant: ParticipantId,
        /// The app instance's 10-digit install ID.
        install: InstallId,
    },
    /// Server → client: sign-in verdict.
    SignInAck {
        /// Whether the participant code was recognized.
        accepted: bool,
    },
    /// Client → server: one compressed snapshot accumulation file.
    SnapshotUpload {
        /// The uploading install.
        install: InstallId,
        /// Client-side file identifier (for the matching ack).
        file_id: u64,
        /// Whether this file holds fast (true) or slow snapshots.
        fast: bool,
        /// LZSS-compressed snapshot file contents.
        payload: Vec<u8>,
    },
    /// Server → client: hash acknowledgement. The client recomputes the
    /// hash of what it sent and deletes the local file on a match (§3).
    UploadAck {
        /// Which file is acknowledged.
        file_id: u64,
        /// SHA-256 of the payload *as received by the server*.
        sha256: [u8; 32],
    },
    /// Either direction: protocol error.
    Error {
        /// Numeric error code.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
}

/// Message type discriminants.
mod msg_type {
    pub const SIGN_IN: u8 = 1;
    pub const SIGN_IN_ACK: u8 = 2;
    pub const SNAPSHOT_UPLOAD: u8 = 3;
    pub const UPLOAD_ACK: u8 = 4;
    pub const ERROR: u8 = 5;
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Stream does not start with the protocol magic.
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// Payload failed its CRC check.
    BadCrc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// Unknown message type byte.
    UnknownType(u8),
    /// Payload too short / malformed for its message type.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
            WireError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: frame {expected:#010x}, computed {actual:#010x}"
                )
            }
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl Message {
    /// The frame type byte for this message.
    pub fn msg_type(&self) -> u8 {
        match self {
            Message::SignIn { .. } => msg_type::SIGN_IN,
            Message::SignInAck { .. } => msg_type::SIGN_IN_ACK,
            Message::SnapshotUpload { .. } => msg_type::SNAPSHOT_UPLOAD,
            Message::UploadAck { .. } => msg_type::UPLOAD_ACK,
            Message::Error { .. } => msg_type::ERROR,
        }
    }

    /// Append the payload body (without framing) to `p`.
    fn write_payload(&self, p: &mut Vec<u8>) {
        match self {
            Message::SignIn {
                participant,
                install,
            } => {
                p.extend_from_slice(&participant.raw().to_le_bytes());
                p.extend_from_slice(&install.raw().to_le_bytes());
            }
            Message::SignInAck { accepted } => p.push(u8::from(*accepted)),
            Message::SnapshotUpload {
                install,
                file_id,
                fast,
                payload,
            } => {
                p.extend_from_slice(&install.raw().to_le_bytes());
                p.extend_from_slice(&file_id.to_le_bytes());
                p.push(u8::from(*fast));
                p.extend_from_slice(payload);
            }
            Message::UploadAck { file_id, sha256 } => {
                p.extend_from_slice(&file_id.to_le_bytes());
                p.extend_from_slice(sha256);
            }
            Message::Error { code, detail } => {
                p.extend_from_slice(&code.to_le_bytes());
                p.extend_from_slice(detail.as_bytes());
            }
        }
    }

    /// Decode a message from a frame.
    pub fn from_frame(frame: &Frame) -> Result<Message, WireError> {
        Message::from_parts(frame.msg_type, &frame.payload)
    }

    /// Decode a message from a frame's type byte and payload bytes.
    fn from_parts(msg_type: u8, p: &[u8]) -> Result<Message, WireError> {
        let take_u32 =
            |b: &[u8]| -> u32 { u32::from_le_bytes(b[..4].try_into().expect("4 bytes")) };
        let take_u64 =
            |b: &[u8]| -> u64 { u64::from_le_bytes(b[..8].try_into().expect("8 bytes")) };
        match msg_type {
            msg_type::SIGN_IN => {
                if p.len() != 12 {
                    return Err(WireError::Malformed("sign-in needs 12 bytes"));
                }
                Ok(Message::SignIn {
                    participant: ParticipantId(take_u32(p)),
                    install: InstallId(take_u64(&p[4..])),
                })
            }
            msg_type::SIGN_IN_ACK => {
                if p.len() != 1 {
                    return Err(WireError::Malformed("sign-in ack needs 1 byte"));
                }
                Ok(Message::SignInAck {
                    accepted: p[0] != 0,
                })
            }
            msg_type::SNAPSHOT_UPLOAD => {
                if p.len() < 17 {
                    return Err(WireError::Malformed("upload header needs 17 bytes"));
                }
                Ok(Message::SnapshotUpload {
                    install: InstallId(take_u64(p)),
                    file_id: take_u64(&p[8..]),
                    fast: p[16] != 0,
                    payload: p[17..].to_vec(),
                })
            }
            msg_type::UPLOAD_ACK => {
                if p.len() != 40 {
                    return Err(WireError::Malformed("upload ack needs 40 bytes"));
                }
                let mut sha256 = [0u8; 32];
                sha256.copy_from_slice(&p[8..40]);
                Ok(Message::UploadAck {
                    file_id: take_u64(p),
                    sha256,
                })
            }
            msg_type::ERROR => {
                if p.len() < 2 {
                    return Err(WireError::Malformed("error needs 2 bytes"));
                }
                Ok(Message::Error {
                    code: u16::from_le_bytes([p[0], p[1]]),
                    detail: String::from_utf8_lossy(&p[2..]).into_owned(),
                })
            }
            t => Err(WireError::UnknownType(t)),
        }
    }

    /// Encode a full frame with sequence number 0.
    ///
    /// Convenience for lenient-codec contexts (TCP, one-shot exchanges)
    /// where sequence checking is off; sequenced sessions use
    /// [`Message::encode_seq`].
    pub fn encode(&self) -> Vec<u8> {
        self.encode_seq(0)
    }

    /// Encode a full frame: header (with the given sequence number),
    /// payload, CRC trailer. The CRC covers bytes `2..` of the frame up to
    /// the trailer (version, type, seq, length and payload).
    pub fn encode_seq(&self, seq: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_seq_into(seq, &mut out);
        out
    }

    /// Encode a full frame into a caller-supplied buffer (cleared first).
    ///
    /// The payload is written straight into `out` after the header — no
    /// intermediate payload `Vec` — with the length field backpatched once
    /// the payload size is known, then the CRC computed in place. Hot
    /// senders keep one frame buffer per connection and reuse it for every
    /// transmission.
    ///
    /// # Panics
    ///
    /// If the payload exceeds [`MAX_PAYLOAD`], which only an owned
    /// [`Message::SnapshotUpload`] or [`Message::Error`] built that large
    /// can; the upload path encodes through [`encode_upload_into`], which
    /// returns the error instead.
    pub fn encode_seq_into(&self, seq: u32, out: &mut Vec<u8>) {
        frame_into(self.msg_type(), seq, out, |p| self.write_payload(p))
            .expect("an owned message fits a frame");
    }
}

/// Frame skeleton writer: header with a length placeholder, payload via
/// `write_payload`, then the backpatched length and the CRC trailer. A
/// payload past [`MAX_PAYLOAD`] is [`WireError::TooLarge`] and leaves
/// `out` empty: no receiver would accept the frame.
fn frame_into(
    msg_type: u8,
    seq: u32,
    out: &mut Vec<u8>,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    out.clear();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(msg_type);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // length, backpatched below
    write_payload(out);
    let len = out.len() - HEADER;
    if len > MAX_PAYLOAD {
        out.clear();
        return Err(WireError::TooLarge(len));
    }
    out[HEADER - 4..HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[CRC_START..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Encode a snapshot-upload frame from a *borrowed* payload.
///
/// Byte-identical to encoding [`Message::SnapshotUpload`] with the same
/// fields, but the compressed file contents are copied exactly once — from
/// the buffer's queue into the frame — instead of first being cloned into
/// an owned `Message`. A file too large for one frame is
/// [`WireError::TooLarge`]: the caller keeps it queued and reports it,
/// since no retransmission can deliver it.
pub fn encode_upload_into(
    seq: u32,
    install: InstallId,
    file_id: u64,
    fast: bool,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    frame_into(msg_type::SNAPSHOT_UPLOAD, seq, out, |p| {
        p.extend_from_slice(&install.raw().to_le_bytes());
        p.extend_from_slice(&file_id.to_le_bytes());
        p.push(u8::from(fast));
        p.extend_from_slice(payload);
    })
}

/// Incremental frame decoder (sans-IO): feed bytes, pull complete frames.
///
/// ```
/// use racket_collect::wire::{FrameCodec, Message};
/// use racket_types::{InstallId, ParticipantId};
///
/// let msg = Message::SignIn {
///     participant: ParticipantId(123_456),
///     install: InstallId(1_000_000_000),
/// };
/// let bytes = msg.encode();
///
/// let mut codec = FrameCodec::new();
/// codec.feed(&bytes[..5]); // partial frame…
/// assert!(codec.try_decode_message().unwrap().is_none());
/// codec.feed(&bytes[5..]); // …completed
/// assert_eq!(codec.try_decode_message().unwrap(), Some(msg));
/// ```
#[derive(Debug, Default)]
pub struct FrameCodec {
    buf: BytesMut,
    /// `Some(next_accept)` when sequence checking is on: a frame is
    /// accepted iff `frame.seq >= next_accept` (then `next_accept`
    /// becomes `frame.seq + 1`); the rest are discarded as duplicates or
    /// stale reordered copies.
    strict: Option<u32>,
    stale_discards: u64,
}

impl FrameCodec {
    /// Create a lenient codec: sequence numbers are decoded but not
    /// checked. Use over transports with exactly-once ordered delivery.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a sequence-checking codec for one connection: frames whose
    /// sequence number has already been seen (duplicates) or is lower than
    /// a frame already accepted (stale reordered copies) are silently
    /// discarded and counted in [`FrameCodec::stale_discards`].
    pub fn strict() -> Self {
        FrameCodec {
            strict: Some(0),
            ..Self::default()
        }
    }

    /// Start over as on a fresh connection: buffered bytes are dropped and
    /// a strict codec accepts any sequence number again. The mode and the
    /// [`FrameCodec::stale_discards`] tally are kept.
    pub fn reset(&mut self) {
        self.buf = BytesMut::new();
        self.strict = self.strict.map(|_| 0);
    }

    /// Append received bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Duplicate or stale frames discarded by strict sequence checking
    /// (always 0 on a lenient codec).
    pub fn stale_discards(&self) -> u64 {
        self.stale_discards
    }

    /// Try to decode the next complete, *accepted* frame. `Ok(None)` means
    /// more bytes are needed. On error the buffer is poisoned and should
    /// be discarded along with the connection (framing is unrecoverable
    /// after corruption).
    pub fn try_decode(&mut self) -> Result<Option<Frame>, WireError> {
        self.next_accepted(|msg_type, seq, payload| {
            Ok(Frame {
                msg_type,
                seq,
                payload: payload.to_vec(),
            })
        })
    }

    /// Decode the next complete *message*, straight from the buffered
    /// bytes: an upload's payload is copied once, an ack not at all.
    pub fn try_decode_message(&mut self) -> Result<Option<Message>, WireError> {
        self.next_accepted(|msg_type, _, payload| Message::from_parts(msg_type, payload))
    }

    /// Check the next complete frame off the buffer, skip it if sequence
    /// acceptance discards it, else hand its type, sequence number and
    /// payload bytes to `build`; the whole frame is then released with one
    /// O(1) cursor advance, whatever `build` made of it.
    fn next_accepted<T>(
        &mut self,
        build: impl Fn(u8, u32, &[u8]) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        loop {
            if self.buf.len() < HEADER {
                return Ok(None);
            }
            let magic = u16::from_le_bytes([self.buf[0], self.buf[1]]);
            if magic != MAGIC {
                return Err(WireError::BadMagic(magic));
            }
            let version = self.buf[2];
            if version != VERSION {
                return Err(WireError::BadVersion(version));
            }
            let msg_type = self.buf[3];
            let seq = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]);
            let len =
                u32::from_le_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]) as usize;
            if len > MAX_PAYLOAD {
                return Err(WireError::TooLarge(len));
            }
            let total = HEADER + len + TRAILER;
            if self.buf.len() < total {
                return Ok(None);
            }
            let actual = crc32(&self.buf[CRC_START..HEADER + len]);
            let expected =
                u32::from_le_bytes(self.buf[HEADER + len..total].try_into().expect("4 bytes"));
            if expected != actual {
                return Err(WireError::BadCrc { expected, actual });
            }
            if let Some(next_accept) = self.strict {
                if seq < next_accept {
                    self.stale_discards += 1;
                    self.buf.advance(total);
                    continue; // duplicate or stale reordered copy
                }
                self.strict = Some(seq + 1);
            }
            let built = build(msg_type, seq, &self.buf[HEADER..HEADER + len]);
            self.buf.advance(total);
            return built.map(Some);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    fn samples() -> Vec<Message> {
        vec![
            Message::SignIn {
                participant: ParticipantId(123_456),
                install: InstallId(9_876_543_210),
            },
            Message::SignInAck { accepted: true },
            Message::SignInAck { accepted: false },
            Message::SnapshotUpload {
                install: InstallId(1_234_567_890),
                file_id: 42,
                fast: true,
                payload: b"compressed bytes".to_vec(),
            },
            Message::UploadAck {
                file_id: 42,
                sha256: [7; 32],
            },
            Message::Error {
                code: 500,
                detail: "boom".into(),
            },
        ]
    }

    #[test]
    fn round_trip_all_message_types() {
        for msg in samples() {
            let bytes = msg.encode();
            let mut codec = FrameCodec::new();
            codec.feed(&bytes);
            let decoded = codec.try_decode_message().unwrap().expect("complete frame");
            assert_eq!(decoded, msg);
            assert_eq!(codec.buffered(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let msg = Message::SnapshotUpload {
            install: InstallId(1),
            file_id: 7,
            fast: false,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = msg.encode();
        let mut codec = FrameCodec::new();
        for (i, b) in bytes.iter().enumerate() {
            codec.feed(&[*b]);
            let out = codec.try_decode_message().unwrap();
            if i + 1 < bytes.len() {
                assert!(out.is_none(), "frame completed early at byte {i}");
            } else {
                assert_eq!(out, Some(msg.clone()));
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_feed() {
        let mut stream = Vec::new();
        for msg in samples() {
            stream.extend_from_slice(&msg.encode());
        }
        let mut codec = FrameCodec::new();
        codec.feed(&stream);
        let mut decoded = Vec::new();
        while let Some(m) = codec.try_decode_message().unwrap() {
            decoded.push(m);
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn corrupted_payload_detected_by_crc() {
        let msg = Message::SnapshotUpload {
            install: InstallId(1),
            file_id: 1,
            fast: true,
            payload: vec![0xAA; 64],
        };
        let mut bytes = msg.encode();
        bytes[HEADER + 10] ^= 0x01; // flip a payload bit
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        assert!(matches!(codec.try_decode(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Message::SignInAck { accepted: true }.encode();
        bytes[0] = 0x00;
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        assert!(matches!(codec.try_decode(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Message::SignInAck { accepted: true }.encode();
        bytes[2] = 99;
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        assert!(matches!(codec.try_decode(), Err(WireError::BadVersion(99))));
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut bytes = Message::SignInAck { accepted: true }.encode();
        // Length field sits at bytes 8..12 in the v2 header.
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        assert!(matches!(codec.try_decode(), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn unknown_message_type_rejected() {
        // The type byte is CRC-covered in v2, so a raw flip would fail the
        // CRC first; craft a whole frame with an unknown type and a valid
        // CRC to reach the type check.
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0xEE); // unknown type
        buf.put_u32_le(0); // seq
        buf.put_u32_le(0); // empty payload
        let crc = crc32(&buf[2..]);
        buf.put_u32_le(crc);
        let mut codec = FrameCodec::new();
        codec.feed(&buf);
        assert!(matches!(
            codec.try_decode_message(),
            Err(WireError::UnknownType(0xEE))
        ));
    }

    #[test]
    fn type_byte_corruption_detected_by_crc() {
        // The complementary v2 guarantee: an in-flight flip of the type
        // byte of a real frame is caught by the header-covering CRC.
        let mut bytes = Message::SignInAck { accepted: true }.encode();
        bytes[3] = 0xEE;
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        assert!(matches!(codec.try_decode(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn malformed_payload_lengths_rejected() {
        // A sign-in frame with an 11-byte payload.
        let payload = vec![0u8; 11];
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(1); // SIGN_IN
        buf.put_u32_le(0); // seq
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
        let crc = crc32(&buf[2..]);
        buf.put_u32_le(crc);
        let mut codec = FrameCodec::new();
        codec.feed(&buf);
        assert!(matches!(
            codec.try_decode_message(),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn header_seq_corruption_detected_by_crc() {
        // v2 extends the CRC over the header: flipping a bit of the seq
        // field (byte 4) must fail the CRC, not silently change acceptance.
        let mut bytes = Message::SignInAck { accepted: true }.encode_seq(7);
        bytes[4] ^= 0x10;
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        assert!(matches!(codec.try_decode(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn strict_codec_discards_duplicates_and_stale_frames() {
        let a = Message::SignInAck { accepted: true };
        let b = Message::SignInAck { accepted: false };
        let mut codec = FrameCodec::strict();
        // seq 0 accepted, its duplicate discarded, seq 1 accepted.
        codec.feed(&a.encode_seq(0));
        codec.feed(&a.encode_seq(0));
        codec.feed(&b.encode_seq(1));
        assert_eq!(codec.try_decode_message().unwrap(), Some(a.clone()));
        assert_eq!(codec.try_decode_message().unwrap(), Some(b.clone()));
        assert_eq!(codec.try_decode_message().unwrap(), None);
        assert_eq!(codec.stale_discards(), 1);
        // A stale reordered copy (seq 0 after seq 1) is also discarded.
        codec.feed(&a.encode_seq(0));
        assert_eq!(codec.try_decode_message().unwrap(), None);
        assert_eq!(codec.stale_discards(), 2);
    }

    #[test]
    fn strict_codec_accepts_gaps_after_loss() {
        // A dropped frame consumed seq 1; the retransmission carries a
        // fresh seq 2 and must still be accepted (monotonic acceptance,
        // not contiguity).
        let m = Message::SignInAck { accepted: true };
        let mut codec = FrameCodec::strict();
        codec.feed(&m.encode_seq(0));
        codec.feed(&m.encode_seq(2));
        assert!(codec.try_decode_message().unwrap().is_some());
        assert!(codec.try_decode_message().unwrap().is_some());
        assert_eq!(codec.stale_discards(), 0);
    }

    #[test]
    fn lenient_codec_ignores_sequence_numbers() {
        let m = Message::SignInAck { accepted: true };
        let mut codec = FrameCodec::new();
        codec.feed(&m.encode_seq(5));
        codec.feed(&m.encode_seq(5));
        codec.feed(&m.encode_seq(1));
        for _ in 0..3 {
            assert!(codec.try_decode_message().unwrap().is_some());
        }
        assert_eq!(codec.stale_discards(), 0);
    }

    #[test]
    fn borrowed_upload_encoder_matches_owned_message() {
        let payload = b"compressed file bytes".to_vec();
        let msg = Message::SnapshotUpload {
            install: InstallId(77),
            file_id: 9,
            fast: true,
            payload: payload.clone(),
        };
        let mut pooled = Vec::new();
        encode_upload_into(5, InstallId(77), 9, true, &payload, &mut pooled).unwrap();
        assert_eq!(pooled, msg.encode_seq(5));
    }

    #[test]
    fn pooled_frame_buffer_is_reused_across_encodes() {
        let mut buf = Vec::new();
        let big = Message::SnapshotUpload {
            install: InstallId(1),
            file_id: 1,
            fast: true,
            payload: vec![0xCD; 2048],
        };
        big.encode_seq_into(0, &mut buf);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        // A same-size or smaller frame must not reallocate the buffer.
        big.encode_seq_into(1, &mut buf);
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        Message::SignInAck { accepted: true }.encode_seq_into(2, &mut buf);
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        // Each encode replaces the contents (cleared, not appended).
        assert_eq!(buf, Message::SignInAck { accepted: true }.encode_seq(2));
    }

    #[test]
    fn empty_upload_payload_is_legal() {
        let msg = Message::SnapshotUpload {
            install: InstallId(3),
            file_id: 0,
            fast: true,
            payload: Vec::new(),
        };
        let mut codec = FrameCodec::new();
        codec.feed(&msg.encode());
        assert_eq!(codec.try_decode_message().unwrap(), Some(msg));
    }
}
