//! The wire format: length-prefixed binary frames.
//!
//! Every message on a socket — handshake and data alike — is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic       0xACFD0001, big-endian
//!      4     1  kind        0 Data, 1 Hello, 2 Welcome, 3 Peers, 4 Heartbeat,
//!                           5 Request, 6 Response
//!      5     4  from        sending rank (u32, big-endian)
//!      9     8  tag         message tag (u64, big-endian)
//!     17     8  seq         sender's causality stamp (u64, BE; 0 = none)
//!     25     4  len         payload length in f64 *elements* (u32, BE)
//!     29  8*len payload     IEEE-754 bit patterns, big-endian
//! ```
//!
//! The decoder is incremental (asks for more bytes until a whole frame is
//! buffered) and total: any malformed input — bad magic, unknown kind, or
//! an absurd length — yields a typed [`DecodeError`], never a panic and
//! never an attempt to allocate the claimed length.

use bytes::{Buf, BufMut};

/// Frame magic: "ACFD" spirit, version 1.
pub const MAGIC: u32 = 0xACFD_0001;

/// Fixed header size in bytes (`magic + kind + from + tag + seq + len`).
/// Consumers beyond the codec: the trace cross-validation adds this per
/// predicted frame to turn payload bytes into TCP wire bytes.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8 + 4;

/// Upper bound on payload elements a decoder will accept (1 GiB of
/// f64s); anything larger is treated as a corrupt length field.
pub const MAX_PAYLOAD_ELEMS: u32 = 1 << 27;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application message (tagged `f64` payload between ranks).
    Data,
    /// Handshake: "here I am" — to the rendezvous (tag = my data port)
    /// or on a fresh mesh connection (`from` = my rank).
    Hello,
    /// Handshake: rendezvous → worker; `from` = your assigned rank,
    /// `tag` = total rank count.
    Welcome,
    /// Handshake: rendezvous → worker; payload = every rank's data port
    /// in rank order.
    Peers,
    /// Liveness probe: "I'm still here" — sent periodically on idle
    /// connections so a receive timeout can distinguish a slow peer
    /// (heartbeats arriving) from a hung or dead one (silence). Carries
    /// no payload, is never delivered to the application, and is
    /// excluded from wire statistics.
    Heartbeat,
    /// Compile-service request: client → service. The payload is UTF-8
    /// JSON text packed into f64 bit patterns (see [`pack_text`]); `tag`
    /// carries the byte length.
    Request,
    /// Compile-service response: service → client, answering one
    /// request. Same text packing as [`FrameKind::Request`].
    Response,
}

impl FrameKind {
    fn to_wire(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Hello => 1,
            FrameKind::Welcome => 2,
            FrameKind::Peers => 3,
            FrameKind::Heartbeat => 4,
            FrameKind::Request => 5,
            FrameKind::Response => 6,
        }
    }

    fn from_wire(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Welcome),
            3 => Some(FrameKind::Peers),
            4 => Some(FrameKind::Heartbeat),
            5 => Some(FrameKind::Request),
            6 => Some(FrameKind::Response),
            _ => None,
        }
    }
}

/// One wire message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What kind of message.
    pub kind: FrameKind,
    /// Sending rank (rendezvous handshake uses 0).
    pub from: u32,
    /// Message tag; handshake frames overload it (see [`FrameKind`]).
    pub tag: u64,
    /// Sender's per-endpoint causality stamp for data frames (first
    /// send is 1); 0 on frames that carry no stamp (handshake,
    /// heartbeat, service traffic).
    pub seq: u64,
    /// The values. f64 bit patterns survive the round-trip exactly,
    /// NaNs included.
    pub payload: Vec<f64>,
}

impl Frame {
    /// A data frame (unstamped; see [`Frame::with_seq`]).
    pub fn data(from: u32, tag: u64, payload: Vec<f64>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            from,
            tag,
            seq: 0,
            payload,
        }
    }

    /// The same frame carrying causality stamp `seq`.
    pub fn with_seq(mut self, seq: u64) -> Frame {
        self.seq = seq;
        self
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() * 8
    }

    /// A text-carrying frame of the given `kind` ([`FrameKind::Request`]
    /// or [`FrameKind::Response`]): the UTF-8 bytes of `text` packed into
    /// the f64 payload, the byte length in `tag`. Inverse: [`Frame::text`].
    pub fn from_text(kind: FrameKind, from: u32, text: &str) -> Frame {
        Frame {
            kind,
            from,
            tag: text.len() as u64,
            seq: 0,
            payload: pack_text(text),
        }
    }

    /// Recover the UTF-8 text of a frame built by [`Frame::from_text`].
    /// Fails with [`DecodeError::Malformed`] when the claimed byte
    /// length does not fit the payload or the bytes are not UTF-8.
    pub fn text(&self) -> Result<String, DecodeError> {
        unpack_text(self.tag, &self.payload)
    }
}

/// Pack UTF-8 bytes into f64 bit patterns, 8 bytes per element
/// big-endian, zero-padded. The codec moves f64 payloads bit-exactly, so
/// arbitrary byte strings such as JSON requests ride the same
/// wire format as halo data. The byte length travels in the frame's
/// `tag`; [`unpack_text`] is the inverse.
pub fn pack_text(text: &str) -> Vec<f64> {
    let bytes = text.as_bytes();
    let mut payload = Vec::with_capacity(bytes.len().div_ceil(8));
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        payload.push(f64::from_bits(u64::from_be_bytes(word)));
    }
    payload
}

/// Unpack text packed by [`pack_text`]: `len` is the byte length (the
/// frame `tag`), `payload` the f64 words. Total: a bad length or
/// non-UTF-8 bytes yield a typed [`DecodeError::Malformed`].
pub fn unpack_text(len: u64, payload: &[f64]) -> Result<String, DecodeError> {
    let len = usize::try_from(len)
        .map_err(|_| DecodeError::Malformed(format!("text length {len} out of range")))?;
    if len.div_ceil(8) != payload.len() {
        return Err(DecodeError::Malformed(format!(
            "text length {len} does not fit a {}-element payload",
            payload.len()
        )));
    }
    let mut bytes = Vec::with_capacity(payload.len() * 8);
    for &v in payload {
        bytes.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).map_err(|e| DecodeError::Malformed(format!("non-UTF-8 text: {e}")))
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough bytes yet; the frame needs at least `needed` bytes
    /// total (from the start of the buffer).
    Incomplete {
        /// Minimum total buffer length required to make progress.
        needed: usize,
    },
    /// The bytes cannot be a frame (bad magic, unknown kind, corrupt
    /// length). The connection carrying them is unrecoverable.
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete { needed } => {
                write!(f, "incomplete frame: need {needed} bytes")
            }
            DecodeError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode a frame to its wire bytes.
pub fn encode(frame: &Frame) -> Vec<u8> {
    encode_parts(frame.kind, frame.from, frame.tag, frame.seq, &frame.payload)
}

/// Encode a frame from its fields without building a [`Frame`]: the
/// header and the payload go straight into one buffer of the final size,
/// so a sender never copies its payload into an owned `Vec` first.
pub(crate) fn encode_parts(
    kind: FrameKind,
    from: u32,
    tag: u64,
    seq: u64,
    payload: &[f64],
) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD_ELEMS as usize,
        "payload of {} elements exceeds the wire limit",
        payload.len()
    );
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() * 8);
    buf.put_u32(MAGIC);
    buf.put_u8(kind.to_wire());
    buf.put_u32(from);
    buf.put_u64(tag);
    buf.put_u64(seq);
    buf.put_u32(payload.len() as u32);
    buf.resize(HEADER_LEN + payload.len() * 8, 0);
    for (word, v) in buf[HEADER_LEN..].chunks_exact_mut(8).zip(payload) {
        word.copy_from_slice(&v.to_bits().to_be_bytes());
    }
    buf
}

/// A validated header: everything but the payload.
struct Header {
    kind: FrameKind,
    from: u32,
    tag: u64,
    seq: u64,
    len: usize,
}

impl Header {
    /// Parse and check the first [`HEADER_LEN`] bytes of `buf` (which
    /// must hold at least that many): magic, kind, and the length cap,
    /// all before anything is allocated for the payload.
    fn parse(mut buf: &[u8]) -> Result<Header, DecodeError> {
        let magic = buf.get_u32();
        if magic != MAGIC {
            return Err(DecodeError::Malformed(format!(
                "bad magic {magic:#010x} (expected {MAGIC:#010x})"
            )));
        }
        let kind_byte = buf.get_u8();
        let kind = FrameKind::from_wire(kind_byte)
            .ok_or_else(|| DecodeError::Malformed(format!("unknown frame kind {kind_byte}")))?;
        let from = buf.get_u32();
        let tag = buf.get_u64();
        let seq = buf.get_u64();
        let len = buf.get_u32();
        if len > MAX_PAYLOAD_ELEMS {
            return Err(DecodeError::Malformed(format!(
                "payload length {len} exceeds the wire limit"
            )));
        }
        Ok(Header {
            kind,
            from,
            tag,
            seq,
            len: len as usize,
        })
    }

    /// Wire size of the whole frame.
    fn total(&self) -> usize {
        HEADER_LEN + self.len * 8
    }

    /// The frame, its payload decoded from `bytes` (exactly `8 * len`
    /// big-endian words) in one pass.
    fn into_frame(self, bytes: &[u8]) -> Frame {
        Frame {
            kind: self.kind,
            from: self.from,
            tag: self.tag,
            seq: self.seq,
            payload: bytes
                .chunks_exact(8)
                .map(|w| {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(w);
                    f64::from_bits(u64::from_be_bytes(word))
                })
                .collect(),
        }
    }
}

/// Decode one frame from the front of `buf`. Returns the frame and the
/// number of bytes consumed; [`DecodeError::Incomplete`] means feed more
/// bytes and retry, [`DecodeError::Malformed`] means the stream is
/// corrupt beyond recovery.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Incomplete { needed: HEADER_LEN });
    }
    let header = Header::parse(buf)?;
    let total = header.total();
    if buf.len() < total {
        return Err(DecodeError::Incomplete { needed: total });
    }
    Ok((header.into_frame(&buf[HEADER_LEN..total]), total))
}

/// Read exactly one frame from a byte stream, blocking. Returns the
/// frame and its wire size. `Ok(None)` is a clean end-of-stream (EOF at
/// a frame boundary); EOF mid-frame and malformed bytes are errors.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<(Frame, usize)>> {
    use std::io::{Error, ErrorKind};

    let mut header = [0u8; HEADER_LEN];
    // hand-rolled first read: distinguish clean EOF from mid-frame EOF
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof mid-frame (header)",
                ))
            }
            k => got += k,
        }
    }
    let header =
        Header::parse(&header).map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let total = header.total();
    let mut payload = vec![0u8; total - HEADER_LEN];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => Error::new(ErrorKind::UnexpectedEof, "eof mid-frame (payload)"),
        _ => e,
    })?;
    Ok(Some((header.into_frame(&payload), total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let f = Frame::data(3, 1007, vec![1.0, -2.5, 0.0]).with_seq(42);
        let wire = encode(&f);
        assert_eq!(wire.len(), f.encoded_len());
        let (g, consumed) = decode(&wire).unwrap();
        assert_eq!(g, f);
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn decode_leaves_trailing_bytes() {
        let f = Frame::data(0, 1, vec![7.0]);
        let mut wire = encode(&f);
        let g = Frame::data(1, 2, vec![]);
        wire.extend_from_slice(&encode(&g));
        let (first, consumed) = decode(&wire).unwrap();
        assert_eq!(first, f);
        let (second, rest) = decode(&wire[consumed..]).unwrap();
        assert_eq!(second, g);
        assert_eq!(consumed + rest, wire.len());
    }

    #[test]
    fn incomplete_asks_for_more() {
        let wire = encode(&Frame::data(0, 9, vec![1.0, 2.0]));
        assert_eq!(
            decode(&wire[..3]),
            Err(DecodeError::Incomplete { needed: HEADER_LEN })
        );
        assert_eq!(
            decode(&wire[..HEADER_LEN + 4]),
            Err(DecodeError::Incomplete {
                needed: HEADER_LEN + 16
            })
        );
    }

    #[test]
    fn bad_magic_is_malformed() {
        let mut wire = encode(&Frame::data(0, 0, vec![]));
        wire[0] ^= 0xff;
        assert!(matches!(decode(&wire), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn unknown_kind_is_malformed() {
        let mut wire = encode(&Frame::data(0, 0, vec![]));
        wire[4] = 200;
        assert!(matches!(decode(&wire), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn absurd_length_is_malformed_not_oom() {
        let mut wire = encode(&Frame::data(0, 0, vec![]));
        // corrupt the length field; no payload bytes follow, so the cap
        // must be judged from the header, before asking for (or
        // allocating) the claimed length
        for len in [u32::MAX, MAX_PAYLOAD_ELEMS + 1] {
            wire[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
            assert!(matches!(decode(&wire), Err(DecodeError::Malformed(_))));
            let err = read_frame(&mut wire.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("exceeds the wire limit"), "{err}");
        }
        // at the cap itself the header is fine and the decoder asks for more
        wire[HEADER_LEN - 4..].copy_from_slice(&MAX_PAYLOAD_ELEMS.to_be_bytes());
        assert!(matches!(decode(&wire), Err(DecodeError::Incomplete { .. })));
    }

    #[test]
    fn nan_bits_survive() {
        let payload = [
            f64::from_bits(0x7ff8_dead_beef_0001), // quiet NaN with payload
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff4_0000_dead_beef), // negative signalling NaN
            -0.0,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let wire = encode_parts(FrameKind::Data, 0, 0, 0, &payload);
        let (f, _) = decode(&wire).unwrap();
        assert_eq!(bits(&f.payload), bits(&payload));
        let (g, _) = read_frame(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(bits(&g.payload), bits(&payload));
    }

    #[test]
    fn slice_encoder_matches_frame_encoder() {
        for payload in [
            vec![],
            vec![1.5],
            (0..129).map(|i| i as f64 * -0.25).collect(),
        ] {
            let f = Frame::data(7, 99, payload).with_seq(3);
            assert_eq!(
                encode_parts(FrameKind::Data, 7, 99, 3, &f.payload),
                encode(&f)
            );
        }
    }

    #[test]
    fn zero_length_payload_roundtrips() {
        let f = Frame {
            kind: FrameKind::Welcome,
            from: 2,
            tag: 4,
            seq: 0,
            payload: vec![],
        };
        let wire = encode(&f);
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(decode(&wire).unwrap(), (f, HEADER_LEN));
    }

    #[test]
    fn text_frames_roundtrip_through_the_codec() {
        for text in [
            "",
            "x",
            "12345678",
            "123456789",
            "{\"kind\":\"compile\",\"source\":\"      program p\\n      end\\n\"}",
            "unicode: μ∂²u/∂x² ✓",
        ] {
            let f = Frame::from_text(FrameKind::Request, 3, text);
            assert_eq!(f.tag, text.len() as u64);
            let wire = encode(&f);
            let (g, _) = decode(&wire).unwrap();
            assert_eq!(g.kind, FrameKind::Request);
            assert_eq!(g.text().unwrap(), text, "{text:?}");
        }
    }

    #[test]
    fn text_unpack_rejects_bad_lengths_and_bytes() {
        let f = Frame::from_text(FrameKind::Response, 0, "hello");
        // claimed length does not fit the payload
        assert!(matches!(
            unpack_text(f.tag + 8, &f.payload),
            Err(DecodeError::Malformed(_))
        ));
        assert!(matches!(
            unpack_text(100, &f.payload),
            Err(DecodeError::Malformed(_))
        ));
        // invalid UTF-8 inside a correctly sized payload
        let payload = vec![f64::from_bits(u64::from_be_bytes([
            0xff, 0xfe, 0, 0, 0, 0, 0, 0,
        ]))];
        assert!(matches!(
            unpack_text(2, &payload),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn read_frame_clean_eof_vs_mid_frame() {
        use std::io::Cursor;
        let wire = encode(&Frame::data(2, 5, vec![1.0]));
        // clean: exactly one frame then EOF
        let mut c = Cursor::new(wire.clone());
        let (f, n) = read_frame(&mut c).unwrap().unwrap();
        assert_eq!((f.from, f.tag, n), (2, 5, wire.len()));
        assert!(read_frame(&mut c).unwrap().is_none());
        // truncated: EOF mid-frame is an error, not a None, and names
        // the part that ended early
        for (cut, part) in [(HEADER_LEN - 1, "header"), (wire.len() - 3, "payload")] {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            assert_eq!(err.to_string(), format!("eof mid-frame ({part})"));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_frame() -> impl Strategy<Value = Frame> {
        (
            prop_oneof![
                Just(FrameKind::Data),
                Just(FrameKind::Hello),
                Just(FrameKind::Welcome),
                Just(FrameKind::Peers),
                Just(FrameKind::Heartbeat),
                Just(FrameKind::Request),
                Just(FrameKind::Response),
            ],
            0u32..=u32::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            // arbitrary bit patterns, NaNs and infinities included
            proptest::collection::vec((0u64..=u64::MAX).prop_map(f64::from_bits), 0..48),
        )
            .prop_map(|(kind, from, tag, seq, payload)| Frame {
                kind,
                from,
                tag,
                seq,
                payload,
            })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// encode → decode is the identity for every payload bit pattern.
        #[test]
        fn roundtrip_any_frame(frame in arb_frame()) {
            let wire = encode(&frame);
            prop_assert_eq!(wire.len(), frame.encoded_len());
            let (out, consumed) = decode(&wire).expect("own encoding decodes");
            prop_assert_eq!(consumed, wire.len());
            prop_assert_eq!(out.kind, frame.kind);
            prop_assert_eq!(out.from, frame.from);
            prop_assert_eq!(out.tag, frame.tag);
            prop_assert_eq!(out.seq, frame.seq);
            prop_assert_eq!(bits(&out.payload), bits(&frame.payload));
        }

        /// Any truncation is Incomplete with the exact byte requirement —
        /// never a panic, never a bogus frame.
        #[test]
        fn truncation_reports_needed_bytes(frame in arb_frame(), cut_seed in 0usize..10_000) {
            let wire = encode(&frame);
            prop_assume!(!wire.is_empty());
            let cut = cut_seed % wire.len();
            let needed = if cut < HEADER_LEN { HEADER_LEN } else { wire.len() };
            prop_assert_eq!(
                decode(&wire[..cut]),
                Err(DecodeError::Incomplete { needed })
            );
        }

        /// Arbitrary garbage never panics the decoder: it either asks for
        /// more bytes, rejects the buffer as malformed, or decodes a frame
        /// that fits inside it.
        #[test]
        fn arbitrary_bytes_never_panic(buf in proptest::collection::vec(0u8..=255u8, 0..96)) {
            match decode(&buf) {
                Ok((_, consumed)) => prop_assert!(consumed <= buf.len()),
                Err(DecodeError::Incomplete { needed }) => prop_assert!(needed > buf.len()),
                Err(DecodeError::Malformed(_)) => {}
            }
        }

        /// pack_text → unpack_text is the identity for any string,
        /// through the full wire codec.
        #[test]
        fn text_roundtrip_any_string(
            bytes in proptest::collection::vec(0u8..=255u8, 0..200)
        ) {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let f = Frame::from_text(FrameKind::Response, 1, &text);
            let (g, _) = decode(&encode(&f)).expect("own encoding decodes");
            prop_assert_eq!(g.text().expect("text unpacks"), text);
        }

        /// A corrupted header byte never panics; if the frame still
        /// decodes, the corruption was in a value field, not the framing.
        #[test]
        fn corrupt_header_byte_is_clean(frame in arb_frame(), pos in 0usize..HEADER_LEN, flip in 1u8..=255) {
            let mut wire = encode(&frame);
            wire[pos] ^= flip;
            match decode(&wire) {
                Ok((_, consumed)) => prop_assert!(consumed <= wire.len()),
                Err(DecodeError::Incomplete { needed }) => prop_assert!(needed > wire.len()),
                Err(DecodeError::Malformed(_)) => {}
            }
        }
    }
}
