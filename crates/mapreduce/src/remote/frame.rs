//! Length-delimited, checksummed framing for the worker TCP protocol.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! ┌────────────┬────────────┬───────────┬──────────┬──────────────┬─────────┐
//! │ magic: u32 │ opcode: u16│ flags: u16│ len: u32 │ checksum: u64│ payload │
//! └────────────┴────────────┴───────────┴──────────┴──────────────┴─────────┘
//!     "SPQ3"      dispatch       0        payload     WordHasher     len
//!                                          bytes      over payload    bytes
//! ```
//!
//! All header fields are little-endian. The checksum ([`WordHasher`],
//! FNV-1a a 64-bit word at a time) lets the receiver reject a corrupted
//! payload *before* any structural decoding happens, and the explicit length (capped at [`MAX_FRAME_LEN`]) bounds the
//! allocation a frame can demand. A short read anywhere — header or
//! payload — surfaces as [`FrameError::Truncated`], which is how a peer
//! hanging up mid-frame is observed.

use std::io::{Read, Write};

/// Frame magic: `"SPQ3"` as a little-endian `u32`. It was `"SPQF"` while
/// the checksum was FNV-1a a byte at a time, and `"SPQ2"` while a shard
/// query carried algorithm and pruning tags and a shard result a
/// plan-cache byte. A peer from either fails every frame as
/// [`FrameError::BadMagic`], not as a checksum mismatch or a mis-parsed
/// payload.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SPQ3");

/// Upper bound on a frame payload (64 MiB). A length field above this is
/// treated as corruption, not as a real allocation request.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;

/// Liveness probe; the payload is echoed back in the [`OP_PONG`] reply.
pub const OP_PING: u16 = 1;
/// Reply to [`OP_PING`].
pub const OP_PONG: u16 = 2;
// 3 and 4 carried whole map/reduce jobs; they are retired and stay
// unassigned, so a peer from before the removal gets "unknown opcode".
/// Typed error reply to any request.
pub const OP_ERROR: u16 = 5;
/// Installs a query shard: executor config + data slice + the fingerprint
/// of the feature set ([`OP_FEATURES`]) the shard is evaluated against.
pub const OP_PROVISION: u16 = 6;
/// Acknowledges [`OP_PROVISION`].
pub const OP_PROVISION_OK: u16 = 7;
/// Runs one SPQ query against a provisioned shard.
pub const OP_SHARD_QUERY: u16 = 8;
/// Shard query reply: 12-byte wire records + stats.
pub const OP_SHARD_RESULT: u16 = 9;
/// Installs a [`FaultPlan`](super::FaultPlan) on the worker.
pub const OP_SET_FAULT: u16 = 10;
/// Acknowledges [`OP_SET_FAULT`] (never subject to fault injection).
pub const OP_FAULT_OK: u16 = 11;
/// Asks the worker to stop serving and exit its accept loop.
pub const OP_SHUTDOWN: u16 = 12;
/// Asks a shard host which shards it currently serves (empty payload).
/// A manager re-admitting a recovered worker uses the answer to decide
/// whether the worker's copies are still warm or must be re-provisioned.
pub const OP_SHARD_STATUS: u16 = 13;
/// Reply to [`OP_SHARD_STATUS`]: the hosted shard ids.
pub const OP_SHARD_STATUS_OK: u16 = 14;
/// One bounded chunk of a feature set, named by the set's fingerprint and
/// carrying its chunk index and the chunk total; the chunks of a set
/// arrive in order, once per worker, and every shard the worker hosts
/// shares the assembled set.
pub const OP_FEATURES: u16 = 15;
/// Acknowledges one [`OP_FEATURES`] chunk.
pub const OP_FEATURES_OK: u16 = 16;

/// Transport-level failure while reading or writing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header did not start with [`MAGIC`] — the peer is not speaking
    /// this protocol, or the stream lost sync.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: u32,
    },
    /// The length field — or, on the write side, the payload handed to
    /// [`write_frame`] — exceeded [`MAX_FRAME_LEN`].
    Oversize {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload did not match its checksum.
    Corrupt {
        /// Checksum the header promised.
        expected: u64,
        /// Checksum of the bytes actually received.
        found: u64,
    },
    /// The stream ended (peer hung up) before the frame was complete.
    Truncated,
    /// Any other I/O failure, by kind (timeouts surface here).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (want {MAGIC:#010x})")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Corrupt { expected, found } => write!(
                f,
                "frame payload corrupt: checksum {found:#018x}, header says {expected:#018x}"
            ),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(kind) => write!(f, "frame i/o error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            kind => FrameError::Io(kind),
        }
    }
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a's 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The frame checksum and the feature-set fingerprint: FNV-1a steps over
/// 64-bit little-endian words, fed in any number of pieces.
///
/// Each full word is one step, `hash = ((hash ^ word) · prime) <<< 29`;
/// the bytes after the last full word are folded one FNV-1a step each by
/// [`finish`](Self::finish). A partial word is carried across
/// [`update`](Self::update) calls, so the result is a function of the
/// bytes alone, however they were split. Every step is a bijection of
/// the state, so a change confined to one word (or one tail byte) always
/// changes the result. The rotation is there because a multiply only
/// carries upward: without it a word's top bit would only ever reach the
/// hash's top bit, and flipping it in two words would cancel out. An
/// integrity check against accidents, not an authentication code.
#[derive(Debug, Clone)]
pub struct WordHasher {
    hash: u64,
    /// The bytes of a word not yet complete: `pending[..pending_len]`.
    pending: [u8; 8],
    pending_len: usize,
}

impl Default for WordHasher {
    fn default() -> Self {
        Self {
            hash: FNV_OFFSET_BASIS,
            pending: [0; 8],
            pending_len: 0,
        }
    }
}

impl WordHasher {
    /// Feeds `bytes`, in order after everything fed so far.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = bytes.len().min(8 - self.pending_len);
            let (head, rest) = bytes.split_at(take);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(head);
            self.pending_len += take;
            bytes = rest;
            if self.pending_len < 8 {
                return;
            }
            self.hash = word_step(self.hash, self.pending);
        }
        let (words, rest) = bytes.as_chunks::<8>();
        self.hash = words
            .iter()
            .fold(self.hash, |hash, &word| word_step(hash, word));
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.pending[..self.pending_len]
            .iter()
            .fold(self.hash, |hash, &b| {
                (hash ^ b as u64).wrapping_mul(FNV_PRIME)
            })
    }
}

#[inline]
fn word_step(hash: u64, word: [u8; 8]) -> u64 {
    (hash ^ u64::from_le_bytes(word))
        .wrapping_mul(FNV_PRIME)
        .rotate_left(29)
}

/// [`WordHasher`] over one buffer.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hasher = WordHasher::default();
    hasher.update(bytes);
    hasher.finish()
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, opcode: u16, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_with(w, opcode, payload, false)
}

/// Writes one frame, optionally corrupting the payload *after* the
/// checksum is computed — the fault-injection seam behind
/// [`FaultPlan::corrupt_response`](super::FaultPlan::corrupt_response).
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    opcode: u16,
    payload: &[u8],
    corrupt: bool,
) -> Result<(), FrameError> {
    // A payload past `u32` saturates: it is over the cap either way.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&opcode.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    if corrupt && !payload.is_empty() {
        // Flip every bit of the payload's first byte; the header (and its
        // checksum field) still describe the original bytes.
        let first = HEADER_LEN;
        buf[first] = !buf[first];
    } else if corrupt {
        // An empty payload has no byte to flip; lie in the checksum
        // instead so the receiver still observes corruption.
        buf[12..20].copy_from_slice(&checksum(&[0xab]).to_le_bytes());
    }
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying magic, length cap and checksum.
pub fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let [m0, m1, m2, m3, o0, o1, _, _, l0, l1, l2, l3, c0, c1, c2, c3, c4, c5, c6, c7] = header;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let opcode = u16::from_le_bytes([o0, o1]);
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let expected = u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let found = checksum(&payload);
    if found != expected {
        return Err(FrameError::Corrupt { expected, found });
    }
    Ok((opcode, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello").unwrap();
        let (op, payload) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(op, OP_PING);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SHUTDOWN, &[]).unwrap();
        let (op, payload) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(op, OP_SHUTDOWN);
        assert!(payload.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"x").unwrap();
        buf[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversize_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"x").unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn oversize_payload_is_a_typed_write_error() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, OP_PING, &payload),
            Err(FrameError::Oversize {
                len: MAX_FRAME_LEN + 1
            })
        );
        // Nothing reached the stream: the peer never sees a torn frame.
        assert!(buf.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello world").unwrap();
        buf.truncate(buf.len() - 3); // torn payload
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Truncated)
        );
        // Torn header too.
        assert_eq!(
            read_frame(&mut Cursor::new(&buf[..7])),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mut buf = Vec::new();
        write_frame_with(&mut buf, OP_PONG, b"payload", true).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt { .. })
        ));
        // Even an empty payload can be corrupted (via the checksum field).
        let mut buf = Vec::new();
        write_frame_with(&mut buf, OP_PONG, &[], true).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_frame_with_the_old_magic_is_bad_magic() {
        for old in [*b"SPQF", *b"SPQ2"].map(u32::from_le_bytes) {
            let mut buf = Vec::new();
            write_frame(&mut buf, OP_PING, b"x").unwrap();
            buf[..4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                read_frame(&mut Cursor::new(&buf)),
                Err(FrameError::BadMagic { found: old })
            );
        }
    }

    #[test]
    fn fnv_vectors() {
        // Under one word the checksum is plain FNV-1a: the published
        // vectors hold.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
        // Past one word it is the word hasher's own, pinned: it is on the
        // wire.
        assert_eq!(checksum(b"spatial preference"), 0xc5a2_f75f_c4d8_e0f9);
    }

    #[test]
    fn every_split_folds_to_the_one_shot_hash() {
        let bytes: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(151)).collect();
        let whole = checksum(&bytes);
        for i in 0..=bytes.len() {
            for j in i..=bytes.len() {
                let mut hasher = WordHasher::default();
                for piece in [&bytes[..i], &bytes[i..j], &bytes[j..]] {
                    hasher.update(piece);
                }
                assert_eq!(hasher.finish(), whole, "split at {i} and {j}");
            }
        }
    }

    #[test]
    fn any_change_to_one_byte_changes_the_checksum() {
        // 21 bytes: two full words and a five-byte tail.
        let bytes: Vec<u8> = (0..21u8).collect();
        let whole = checksum(&bytes);
        for at in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                let mut changed = bytes.clone();
                changed[at] ^= mask;
                assert_ne!(checksum(&changed), whole, "byte {at}, mask {mask:#04x}");
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_do_not_cancel() {
        // Without the rotation the multiply never carries a word's top
        // bit anywhere but the hash's top bit, and two flips cancel.
        let bytes = [0u8; 32];
        let mut changed = bytes;
        changed[7] ^= 0x80;
        changed[23] ^= 0x80;
        assert_ne!(checksum(&changed), checksum(&bytes));
    }
}
