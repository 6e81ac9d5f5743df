//! The one frame envelope under every binary protocol of the suite.
//!
//! Three protocols ship bytes between processes: `CVSK` sketch
//! snapshots ([`crate::wire`]), `CVPR` worker jobs and replies
//! (`coverage_dist::proto`) and `CVSV` serve traffic
//! (`coverage_serve::proto`). Each is a *payload schema* on this
//! module's envelope; a [`FrameSpec`] names what tells them apart (magic,
//! version, kind codes, payload cap).
//!
//! ## Frame layout
//!
//! | offset   | size | field                                       |
//! |----------|------|---------------------------------------------|
//! | 0        | 4    | magic (`CVSK`, `CVPR` or `CVSV`)            |
//! | 4        | 2    | version, `u16` LE                           |
//! | 6        | 1    | payload kind                                |
//! | 7        | 1    | flags (`CVSK`) or reserved, written as 0    |
//! | 8        | 8    | payload length `u64` LE                     |
//! | 16       | len  | payload                                     |
//! | 16 + len | 8    | FNV-1a 64 checksum of bytes `0..16+len`     |
//!
//! ## Validation order
//!
//! [`FrameSpec::decode`] checks a buffer in a fixed order, so each
//! corruption class reports its own typed [`WireError`]: size of the
//! fixed parts → magic → version → kind → payload cap → declared length
//! against the buffer → checksum. A version bump therefore reads as
//! [`WireError::UnsupportedVersion`], not as checksum noise. The
//! payload's structure and meaning are the schema's job.
//!
//! [`FrameSpec::read`] takes a frame off a byte stream: a stream that
//! ends before the first header byte is a clean [`ProtoError::Eof`], one
//! that ends inside a frame is [`ProtoError::Io`]. Magic, version and
//! the payload cap are checked on the header alone, before the payload
//! buffer is allocated, so a hostile length field cannot balloon memory.
//! The whole frame then lands in one buffer that goes through
//! [`FrameSpec::decode`], so a stream frame is checked exactly like a
//! buffer. A frame that fails only in its kind or checksum has been
//! consumed whole, and the stream stays in step.
//!
//! ## Shared payload codecs
//!
//! [`WireWriter`]/[`WireReader`] carry the little-endian fields,
//! varints and the payload pieces more than one schema uses: sketch
//! parameters, dynamic-sketch geometry, edge lists and signed-update
//! lists.

use std::io::{Read, Write};

use coverage_core::Edge;
use coverage_stream::SignedEdge;

use crate::dynamic::DynamicSketchParams;
use crate::params::SketchParams;
use crate::wire::PayloadKind;

/// Fixed header size: magic + version + kind + flags + payload length.
pub const HEADER_LEN: usize = 16;
/// Trailing checksum size.
pub const CHECKSUM_LEN: usize = 8;

/// Upper bound on the cell count a dynamic-sketch geometry may declare,
/// so corrupt geometry is refused before it turns into a giant
/// allocation.
const MAX_WIRE_CELLS: usize = 1 << 28;

/// Typed decode failure. Every corruption class has its own variant so
/// callers (and the corruption tests) can assert the *reason* a frame
/// was rejected, and none of them panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with its protocol's magic.
    BadMagic,
    /// The frame's version is not its protocol's.
    UnsupportedVersion {
        /// The version the frame declared.
        found: u16,
    },
    /// The frame's kind byte names no kind of its protocol.
    UnknownKind {
        /// The kind byte the frame declared.
        found: u8,
    },
    /// The snapshot frame is valid but carries the other snapshot type.
    WrongKind {
        /// The kind the caller asked to decode.
        expected: PayloadKind,
        /// The kind the frame actually carries.
        found: PayloadKind,
    },
    /// The buffer is shorter than the frame it declares.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The buffer is longer than the frame it declares.
    TrailingBytes,
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch,
    /// The payload structure cannot be parsed (bad varint, impossible
    /// count, unknown flag bits, leftover payload bytes, a length over
    /// the protocol's cap, …).
    Malformed(&'static str),
    /// The payload parsed but violates a sketch invariant that
    /// `restore()` would otherwise panic on.
    Invariant(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported frame version {found}")
            }
            WireError::UnknownKind { found } => write!(f, "unknown payload kind {found}"),
            WireError::WrongKind { expected, found } => {
                write!(f, "frame carries {found:?}, expected {expected:?}")
            }
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::TrailingBytes => write!(f, "trailing bytes after frame"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Invariant(what) => write!(f, "payload violates sketch invariant: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A failure on a framed byte link. `E` is a refusal by the engine
/// behind the link (the serve daemon's); links without an engine leave
/// it uninhabited.
#[derive(Debug)]
pub enum ProtoError<E = std::convert::Infallible> {
    /// The link failed, or closed mid-frame.
    Io(std::io::Error),
    /// A frame or its payload failed validation.
    Wire(WireError),
    /// The link closed cleanly between frames.
    Eof,
    /// The engine behind the link refused an operation.
    Engine(E),
}

impl<E: std::fmt::Display> std::fmt::Display for ProtoError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "link error: {e}"),
            ProtoError::Wire(e) => write!(f, "frame error: {e}"),
            ProtoError::Eof => write!(f, "link closed"),
            ProtoError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for ProtoError<E> {}

impl<E> From<std::io::Error> for ProtoError<E> {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl<E> From<WireError> for ProtoError<E> {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

/// FNV-1a 64-bit checksum (the frame trailer).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What sets one framed protocol apart from another.
#[derive(Clone, Copy, Debug)]
pub struct FrameSpec {
    /// The first four bytes of every frame.
    pub magic: [u8; 4],
    /// The one version decoders accept; any other is
    /// [`WireError::UnsupportedVersion`].
    pub version: u16,
    /// The kind codes the protocol defines; any other is
    /// [`WireError::UnknownKind`].
    pub kinds: &'static [u8],
    /// The largest payload length a frame may declare.
    pub max_payload: u64,
}

/// A validated frame: its kind, flags byte and payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The kind byte (one of the spec's kinds).
    pub kind: u8,
    /// The flags byte (reserved, 0, outside `CVSK`).
    pub flags: u8,
    /// The payload bytes, checksum verified.
    pub payload: &'a [u8],
}

impl FrameSpec {
    /// Encode one frame: `put` appends the payload after the header and
    /// returns its kind; the length and the checksum trailer follow.
    pub fn encode(&self, flags: u8, put: impl FnOnce(&mut WireWriter) -> u8) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_bytes(&self.magic);
        w.put_u16(self.version);
        w.put_u8(0); // the kind, known once the payload is written
        w.put_u8(flags);
        w.put_u64(0); // the payload length, likewise
        let kind = put(&mut w);
        let len = (w.len() - HEADER_LEN) as u64;
        w.buf[6] = kind;
        w.buf[8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let sum = checksum64(&w.buf);
        w.put_u64(sum);
        w.into_bytes()
    }

    /// Validate a whole frame (see the module docs for the order) and
    /// return its kind, flags and payload.
    pub fn decode<'a>(&self, bytes: &'a [u8]) -> Result<Frame<'a>, WireError> {
        let floor = HEADER_LEN + CHECKSUM_LEN;
        let have = bytes.len();
        if have < floor {
            return Err(WireError::Truncated {
                needed: floor,
                have,
            });
        }
        self.check_prefix(bytes)?;
        let kind = bytes[6];
        if !self.kinds.contains(&kind) {
            return Err(WireError::UnknownKind { found: kind });
        }
        let needed = self
            .payload_len(bytes)?
            .checked_add(floor)
            .ok_or(WireError::Truncated {
                needed: usize::MAX,
                have,
            })?;
        if have < needed {
            return Err(WireError::Truncated { needed, have });
        }
        if have > needed {
            return Err(WireError::TrailingBytes);
        }
        let body_end = needed - CHECKSUM_LEN;
        let declared = u64::from_le_bytes(bytes[body_end..].try_into().expect("8-byte trailer"));
        if checksum64(&bytes[..body_end]) != declared {
            return Err(WireError::ChecksumMismatch);
        }
        Ok(Frame {
            kind,
            flags: bytes[7],
            payload: &bytes[HEADER_LEN..body_end],
        })
    }

    /// Read one frame off `input` and decode its payload with `decode`,
    /// returning the value and the frame's length on the wire.
    pub fn read<T, E>(
        &self,
        input: &mut impl Read,
        decode: impl FnOnce(Frame<'_>) -> Result<T, WireError>,
    ) -> Result<(T, u64), ProtoError<E>> {
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0usize;
        while got < HEADER_LEN {
            match input.read(&mut header[got..])? {
                0 if got == 0 => return Err(ProtoError::Eof),
                0 => {
                    return Err(ProtoError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "link closed mid-frame",
                    )))
                }
                n => got += n,
            }
        }
        self.check_prefix(&header)?;
        let len = self.payload_len(&header)?;
        let mut frame = vec![0u8; HEADER_LEN + len + CHECKSUM_LEN];
        frame[..HEADER_LEN].copy_from_slice(&header);
        input.read_exact(&mut frame[HEADER_LEN..])?;
        let value = decode(self.decode(&frame)?)?;
        Ok((value, frame.len() as u64))
    }

    /// Magic, then version: the fields every other field is trusted by.
    fn check_prefix(&self, header: &[u8]) -> Result<(), WireError> {
        if header[0..4] != self.magic {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte field"));
        if version != self.version {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        Ok(())
    }

    /// The declared payload length, refused above the spec's cap.
    fn payload_len(&self, header: &[u8]) -> Result<usize, WireError> {
        let len = u64::from_le_bytes(header[8..HEADER_LEN].try_into().expect("8-byte field"));
        if len > self.max_payload {
            return Err(WireError::Malformed("frame payload exceeds the size cap"));
        }
        usize::try_from(len)
            .map_err(|_| WireError::Malformed("payload length exceeds the address space"))
    }
}

/// Write one encoded frame and flush it: one write, one flush. Returns
/// the bytes put on the link.
pub fn send(out: &mut impl Write, frame: &[u8]) -> std::io::Result<u64> {
    out.write_all(frame)?;
    out.flush()?;
    Ok(frame.len() as u64)
}

/// Append-only little-endian byte writer: the encoding half of every
/// payload schema.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append an LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a zigzag-mapped signed varint.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append sketch parameters.
    pub fn put_params(&mut self, p: &SketchParams) {
        self.put_varint(p.num_sets as u64);
        self.put_varint(p.k as u64);
        self.put_u64(p.epsilon.to_bits());
        self.put_varint(p.degree_cap as u64);
        self.put_varint(p.edge_budget as u64);
        self.put_varint(p.edge_slack as u64);
        self.put_u8(p.dedup as u8);
    }

    /// Append dynamic-sketch parameters: the base parameters, then the
    /// level/row geometry.
    pub fn put_dynamic_params(&mut self, p: &DynamicSketchParams) {
        self.put_params(&p.base);
        self.put_varint(p.levels as u64);
        self.put_varint(p.rows as u64);
        self.put_varint(p.row_len as u64);
    }

    /// Append a counted edge list.
    pub fn put_edges(&mut self, edges: &[Edge]) {
        self.put_varint(edges.len() as u64);
        for e in edges {
            self.put_varint(e.set.0 as u64);
            self.put_varint(e.element.0);
        }
    }

    /// Append a counted signed-update list (sign byte 0 = insert,
    /// 1 = delete).
    pub fn put_updates(&mut self, updates: &[SignedEdge]) {
        self.put_varint(updates.len() as u64);
        for u in updates {
            self.put_u8(if u.sign() >= 0 { 0 } else { 1 });
            self.put_varint(u.edge.set.0 as u64);
            self.put_varint(u.edge.element.0);
        }
    }

    /// Consume the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte reader — the decoding twin of
/// [`WireWriter`]. Every getter returns [`WireError::Malformed`] instead
/// of panicking when the buffer runs out.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte is consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed("payload ends mid-field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte field"),
        ))
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read an LEB128 varint (rejects encodings past 10 bytes and
    /// overflowing continuations).
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.get_u8()?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(WireError::Malformed("varint overflows 64 bits"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Malformed("varint longer than 10 bytes"))
    }

    /// Read a zigzag-mapped signed varint.
    pub fn get_zigzag(&mut self) -> Result<i64, WireError> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a varint and narrow it to `usize`.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_varint()?)
            .map_err(|_| WireError::Malformed("length exceeds the address space"))
    }

    /// Read a varint set id, refused above `u32`.
    pub fn get_set_id(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.get_varint()?).map_err(|_| WireError::Malformed("set id exceeds u32"))
    }

    /// Read a count of items that take at least one byte each, refused
    /// above the bytes left so it cannot drive a giant allocation.
    pub fn get_count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.get_len()?;
        if n > self.remaining() {
            return Err(WireError::Malformed(what));
        }
        Ok(n)
    }

    /// Read sketch parameters.
    pub fn get_params(&mut self) -> Result<SketchParams, WireError> {
        Ok(SketchParams {
            num_sets: self.get_len()?,
            k: self.get_len()?,
            epsilon: f64::from_bits(self.get_u64()?),
            degree_cap: self.get_len()?,
            edge_budget: self.get_len()?,
            edge_slack: self.get_len()?,
            dedup: match self.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("dedup flag is not 0 or 1")),
            },
        })
    }

    /// Read dynamic-sketch parameters, refusing any geometry
    /// `DynamicSketch` would panic on or that declares more than
    /// `MAX_WIRE_CELLS` cells.
    pub fn get_dynamic_params(&mut self) -> Result<DynamicSketchParams, WireError> {
        let base = self.get_params()?;
        let (levels, rows, row_len) = (self.get_len()?, self.get_len()?, self.get_len()?);
        if !(1..=48).contains(&levels) {
            return Err(WireError::Invariant("levels outside 1..=48"));
        }
        if !(1..=8).contains(&rows) {
            return Err(WireError::Invariant("rows outside 1..=8"));
        }
        if row_len == 0 {
            return Err(WireError::Invariant("row_len is zero"));
        }
        levels
            .checked_mul(rows)
            .and_then(|x| x.checked_mul(row_len))
            .filter(|&t| t <= MAX_WIRE_CELLS)
            .ok_or(WireError::Invariant("cell geometry too large"))?;
        Ok(DynamicSketchParams {
            base,
            levels,
            rows,
            row_len,
        })
    }

    /// Read a counted edge list.
    pub fn get_edges(&mut self) -> Result<Vec<Edge>, WireError> {
        let n = self.get_count("edge count exceeds payload size")?;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            let set = self.get_set_id()?;
            edges.push(Edge::new(set, self.get_varint()?));
        }
        Ok(edges)
    }

    /// Read a counted signed-update list.
    pub fn get_updates(&mut self) -> Result<Vec<SignedEdge>, WireError> {
        let n = self.get_count("update count exceeds payload size")?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            let sign = self.get_u8()?;
            let edge = Edge::new(self.get_set_id()?, self.get_varint()?);
            updates.push(match sign {
                0 => SignedEdge::insert(edge),
                1 => SignedEdge::delete(edge),
                _ => return Err(WireError::Malformed("unknown update sign")),
            });
        }
        Ok(updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FrameSpec = FrameSpec {
        magic: *b"TEST",
        version: 3,
        kinds: &[1, 2],
        max_payload: 64,
    };

    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        SPEC.encode(0, |w| {
            w.put_bytes(payload);
            kind
        })
    }

    #[test]
    fn encode_then_decode_is_the_identity() {
        let bytes = frame(2, b"payload");
        assert_eq!(bytes.len(), HEADER_LEN + 7 + CHECKSUM_LEN);
        let f = SPEC.decode(&bytes).unwrap();
        assert_eq!((f.kind, f.flags, f.payload), (2, 0, &b"payload"[..]));
        let (payload, len) = SPEC
            .read::<_, std::convert::Infallible>(&mut &bytes[..], |f| Ok(f.payload.to_vec()))
            .unwrap();
        assert_eq!((payload, len as usize), (b"payload".to_vec(), bytes.len()));
    }

    #[test]
    fn a_short_buffer_is_truncated_before_anything_else() {
        assert_eq!(
            SPEC.decode(b"nope"),
            Err(WireError::Truncated {
                needed: 24,
                have: 4
            })
        );
    }

    #[test]
    fn kind_and_cap_are_checked_before_the_checksum() {
        let mut bytes = frame(1, b"x");
        bytes[6] = 9;
        assert_eq!(
            SPEC.decode(&bytes),
            Err(WireError::UnknownKind { found: 9 })
        );
        let mut header = frame(1, b"")[..HEADER_LEN].to_vec();
        header[8..16].copy_from_slice(&65u64.to_le_bytes());
        assert!(matches!(
            SPEC.read::<(), std::convert::Infallible>(&mut &header[..], |_| Ok(())),
            Err(ProtoError::Wire(WireError::Malformed(_)))
        ));
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        let mut w = WireWriter::new();
        let us = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let is = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &us {
            w.put_varint(v);
        }
        for &v in &is {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for &v in &us {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
        assert!(r.is_done());
    }

    #[test]
    fn shared_payload_codecs_roundtrip() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(6, 2, 0.5, 100));
        let edges = vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)];
        let updates = vec![
            SignedEdge::insert(Edge::new(1u32, 10u64)),
            SignedEdge::delete(Edge::new(1u32, 10u64)),
        ];
        let mut w = WireWriter::new();
        w.put_dynamic_params(&params);
        w.put_edges(&edges);
        w.put_updates(&updates);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_dynamic_params().unwrap(), params);
        assert_eq!(r.get_edges().unwrap(), edges);
        let back = r.get_updates().unwrap();
        assert_eq!(back.len(), 2);
        assert!(back[0].sign() > 0 && back[1].sign() < 0);
        assert!(r.is_done());
    }

    #[test]
    fn impossible_geometry_is_an_invariant_error() {
        let base = SketchParams::with_budget(6, 2, 0.5, 100);
        for (levels, rows, row_len) in [
            (0, 3, 8),
            (49, 3, 8),
            (20, 9, 8),
            (20, 3, 0),
            (48, 8, 1 << 30),
        ] {
            let mut w = WireWriter::new();
            w.put_dynamic_params(&DynamicSketchParams {
                base,
                levels,
                rows,
                row_len,
            });
            let bytes = w.into_bytes();
            assert!(matches!(
                WireReader::new(&bytes).get_dynamic_params(),
                Err(WireError::Invariant(_))
            ));
        }
    }
}
