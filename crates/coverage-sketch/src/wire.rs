//! The `CVSK` snapshot schema: sketch snapshots as binary frames.
//!
//! JSON snapshots ([`SketchSnapshot::to_json`],
//! [`DynamicSnapshot::to_json`]) are the readable interchange format; this
//! module is the *deployable* one — the compact, checksummed frames the
//! distributed executors ship between worker processes (`coverage-dist`)
//! and the serve daemon answers snapshot requests with. The envelope
//! (header, length, checksum, validation order) is [`crate::frame`]'s;
//! this module is the payload schema on it.
//!
//! ## Schema (magic `CVSK`, version 1)
//!
//! Payload kinds: 1 = threshold ([`SketchSnapshot`]), 2 = dynamic
//! ([`DynamicSnapshot`]). The flags byte holds per-kind encoding options
//! (bit 0 = explicit hashes, bit 1 = raw keys, both threshold-only);
//! unknown flag bits are rejected so future options cannot be silently
//! misread. No payload cap beyond the address space.
//!
//! Version policy: the version is bumped whenever the payload encoding
//! changes incompatibly; decoders reject frames from any other version
//! with [`WireError::UnsupportedVersion`] rather than guessing.
//!
//! ## Decoding is total
//!
//! [`decode_binary`](SketchSnapshot::decode_binary) never panics:
//! corrupt input of every class maps to a typed [`WireError`] — the
//! envelope's classes, then malformed payload structure, then a payload
//! that parses but violates a sketch invariant (an entry hashing above
//! the acceptance bound, a degree-cap overflow, an impossible cell
//! geometry). A frame of the other snapshot type is
//! [`WireError::WrongKind`]. A successfully decoded snapshot satisfies
//! every precondition of `restore()`, so `decode → restore` cannot
//! panic.
//!
//! ## Payload encodings
//!
//! The threshold payload exploits snapshot canonical form: entry keys are
//! strictly increasing, so they are delta-encoded as LEB128 varints;
//! per-entry hashes are *omitted* entirely (the hash is always
//! `h(key)` under the snapshot's seeded [`UnitHash`], so the decoder
//! recomputes them); set ids are varints; `truncated` flags pack into a
//! bitset. The dynamic payload is sparse: only non-zero cells are
//! written (index-gap varints + zigzag sums), which is what makes deep,
//! mostly-empty level banks cheap to ship.

use coverage_hash::UnitHash;

use crate::dynamic::{Cell, DynamicCounters, DynamicSnapshot};
use crate::frame::{FrameSpec, WireError, WireReader};
use crate::serial::{SketchSnapshot, SnapshotEntry};
use crate::threshold::SketchCounters;

pub use crate::frame::checksum64;

/// Frame magic: the first four bytes of every snapshot frame.
pub const WIRE_MAGIC: [u8; 4] = *b"CVSK";
/// Current (and only) frame format version.
pub const WIRE_VERSION: u16 = 1;

/// The `CVSK` envelope.
pub const CVSK: FrameSpec = FrameSpec {
    magic: WIRE_MAGIC,
    version: WIRE_VERSION,
    kinds: &[1, 2],
    max_payload: u64::MAX,
};

/// Threshold-payload flag: per-entry hashes are stored explicitly
/// (written only for non-canonical snapshots whose hashes differ from
/// `h(key)`; never produced by [`SketchSnapshot::of`]).
const FLAG_EXPLICIT_HASHES: u8 = 1 << 0;
/// Threshold-payload flag: entry keys are stored as raw varints instead
/// of deltas (written only when keys are not strictly increasing).
const FLAG_RAW_KEYS: u8 = 1 << 1;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// A [`SketchSnapshot`] (insertion-only threshold sketch).
    Threshold,
    /// A [`DynamicSnapshot`] (insert/delete linear sketch).
    Dynamic,
}

impl PayloadKind {
    fn code(self) -> u8 {
        match self {
            PayloadKind::Threshold => 1,
            PayloadKind::Dynamic => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(PayloadKind::Threshold),
            2 => Some(PayloadKind::Dynamic),
            _ => None,
        }
    }
}

/// Decode a `CVSK` frame that must carry `expected`: its flags and
/// payload.
fn open(bytes: &[u8], expected: PayloadKind) -> Result<(u8, &[u8]), WireError> {
    let frame = CVSK.decode(bytes)?;
    let found =
        PayloadKind::from_code(frame.kind).ok_or(WireError::UnknownKind { found: frame.kind })?;
    if found != expected {
        return Err(WireError::WrongKind { expected, found });
    }
    Ok((frame.flags, frame.payload))
}

impl SketchSnapshot {
    /// Encode into a version-1 binary frame.
    ///
    /// Canonical snapshots (as produced by [`SketchSnapshot::of`]) get
    /// the compact encoding: delta-varint keys, recomputable hashes
    /// omitted. Non-canonical snapshots (hand-built, unsorted, or with
    /// hashes that differ from `h(key)`) still encode losslessly via the
    /// `FLAG_RAW_KEYS` / `FLAG_EXPLICIT_HASHES` fallbacks — encoding is
    /// total, it never panics.
    pub fn encode_binary(&self) -> Vec<u8> {
        let sorted = self.entries.windows(2).all(|w| w[0].key < w[1].key);
        let hash = UnitHash::from_raw_seed(self.raw_seed);
        let canonical_hashes = self.entries.iter().all(|e| e.hash == hash.hash(e.key));
        let mut flags = 0u8;
        if !canonical_hashes {
            flags |= FLAG_EXPLICIT_HASHES;
        }
        if !sorted {
            flags |= FLAG_RAW_KEYS;
        }

        CVSK.encode(flags, |w| {
            w.put_u64(self.raw_seed);
            w.put_params(&self.params);
            w.put_u64(self.bound);
            w.put_varint(self.counters.arrivals);
            w.put_varint(self.counters.rejected_by_bound);
            w.put_varint(self.counters.rejected_by_cap);
            w.put_varint(self.counters.duplicates);
            w.put_varint(self.counters.evictions);
            w.put_varint(self.entries.len() as u64);
            if sorted {
                let mut prev = 0u64;
                for (i, e) in self.entries.iter().enumerate() {
                    w.put_varint(if i == 0 { e.key } else { e.key - prev });
                    prev = e.key;
                }
            } else {
                for e in &self.entries {
                    w.put_varint(e.key);
                }
            }
            if !canonical_hashes {
                for e in &self.entries {
                    w.put_u64(e.hash);
                }
            }
            for e in &self.entries {
                w.put_varint(e.sets.len() as u64);
                for &s in &e.sets {
                    w.put_varint(s as u64);
                }
            }
            let mut bits = vec![0u8; self.entries.len().div_ceil(8)];
            for (i, e) in self.entries.iter().enumerate() {
                if e.truncated {
                    bits[i / 8] |= 1 << (i % 8);
                }
            }
            w.put_bytes(&bits);
            PayloadKind::Threshold.code()
        })
    }

    /// Decode a binary frame produced by
    /// [`encode_binary`](Self::encode_binary).
    ///
    /// Total: every corruption maps to a typed [`WireError`]. On success
    /// the snapshot satisfies every `restore()` precondition (entries
    /// hash at or below the bound, degree cap respected), so
    /// `decode_binary(..)?.restore()` cannot panic.
    pub fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (flags, payload) = open(bytes, PayloadKind::Threshold)?;
        if flags & !(FLAG_EXPLICIT_HASHES | FLAG_RAW_KEYS) != 0 {
            return Err(WireError::Malformed("unknown flag bits"));
        }
        let explicit_hashes = flags & FLAG_EXPLICIT_HASHES != 0;
        let raw_keys = flags & FLAG_RAW_KEYS != 0;

        let mut r = WireReader::new(payload);
        let raw_seed = r.get_u64()?;
        let params = r.get_params()?;
        let bound = r.get_u64()?;
        let counters = SketchCounters {
            arrivals: r.get_varint()?,
            rejected_by_bound: r.get_varint()?,
            rejected_by_cap: r.get_varint()?,
            duplicates: r.get_varint()?,
            evictions: r.get_varint()?,
        };
        // Each entry costs at least one key byte.
        let n = r.get_count("entry count exceeds payload size")?;
        let mut keys = Vec::with_capacity(n);
        if raw_keys {
            for _ in 0..n {
                keys.push(r.get_varint()?);
            }
        } else {
            let mut prev = 0u64;
            for i in 0..n {
                let v = r.get_varint()?;
                let key = if i == 0 {
                    v
                } else {
                    if v == 0 {
                        return Err(WireError::Malformed("delta keys not strictly increasing"));
                    }
                    prev.checked_add(v)
                        .ok_or(WireError::Malformed("delta key overflows u64"))?
                };
                keys.push(key);
                prev = key;
            }
        }
        let hash = UnitHash::from_raw_seed(raw_seed);
        let hashes: Vec<u64> = if explicit_hashes {
            let mut hs = Vec::with_capacity(n);
            for _ in 0..n {
                hs.push(r.get_u64()?);
            }
            hs
        } else {
            keys.iter().map(|&k| hash.hash(k)).collect()
        };
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let len = r.get_count("set count exceeds payload size")?;
            let mut sets = Vec::with_capacity(len);
            for _ in 0..len {
                sets.push(r.get_set_id()?);
            }
            entries.push(SnapshotEntry {
                key: keys[i],
                hash: hashes[i],
                sets,
                truncated: false,
            });
        }
        let bits = r.get_bytes(n.div_ceil(8))?;
        for (i, e) in entries.iter_mut().enumerate() {
            e.truncated = bits[i / 8] >> (i % 8) & 1 == 1;
        }
        if !r.is_done() {
            return Err(WireError::Malformed("leftover payload bytes"));
        }
        // Semantic invariants: everything `restore()` would panic on.
        for e in &entries {
            if e.hash > bound {
                return Err(WireError::Invariant(
                    "entry hashes above the acceptance bound",
                ));
            }
            if e.sets.len() > params.degree_cap {
                return Err(WireError::Invariant("entry exceeds the degree cap"));
            }
        }
        Ok(SketchSnapshot {
            raw_seed,
            params,
            bound,
            entries,
            counters,
        })
    }
}

impl DynamicSnapshot {
    /// Encode into a version-1 binary frame.
    ///
    /// Sparse: only non-zero cells are written (index gaps + zigzag
    /// sums), so deep mostly-empty level banks cost almost nothing.
    pub fn encode_binary(&self) -> Vec<u8> {
        CVSK.encode(0, |w| {
            w.put_u64(self.raw_seed);
            w.put_dynamic_params(&self.params);
            w.put_varint(self.counters.inserts);
            w.put_varint(self.counters.deletes);
            let cells = self.cells();
            let nonzero = cells.iter().filter(|c| !c.is_zero()).count();
            w.put_varint(nonzero as u64);
            let mut prev = 0usize;
            let mut first = true;
            for (i, c) in cells.iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                w.put_varint(if first { i as u64 } else { (i - prev) as u64 });
                first = false;
                prev = i;
                w.put_zigzag(c.count);
                w.put_zigzag(c.set_sum as i64);
                w.put_zigzag(c.elem_sum as i64);
                w.put_u64(c.check_sum);
            }
            PayloadKind::Dynamic.code()
        })
    }

    /// Decode a binary frame produced by
    /// [`encode_binary`](Self::encode_binary).
    ///
    /// Total: every corruption maps to a typed [`WireError`], and the
    /// declared cell geometry is validated (level/row bounds, checked
    /// size arithmetic) so `decode_binary(..)?.restore()` cannot panic.
    pub fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (flags, payload) = open(bytes, PayloadKind::Dynamic)?;
        if flags != 0 {
            return Err(WireError::Malformed("unknown flag bits"));
        }
        let mut r = WireReader::new(payload);
        let raw_seed = r.get_u64()?;
        // Validated geometry: the bounds `DynamicSketch::with_hash`
        // asserts, and a total-size cap.
        let params = r.get_dynamic_params()?;
        let total = params.total_cells();
        let counters = DynamicCounters {
            inserts: r.get_varint()?,
            deletes: r.get_varint()?,
        };
        let nonzero = r.get_len()?;
        if nonzero > total {
            return Err(WireError::Malformed("non-zero cell count exceeds geometry"));
        }
        if nonzero > r.remaining() {
            return Err(WireError::Malformed(
                "non-zero cell count exceeds payload size",
            ));
        }
        let mut cells = vec![Cell::default(); total];
        let mut idx = 0usize;
        for i in 0..nonzero {
            let gap = r.get_len()?;
            if i == 0 {
                idx = gap;
            } else {
                if gap == 0 {
                    return Err(WireError::Malformed("cell indices not strictly increasing"));
                }
                idx = idx
                    .checked_add(gap)
                    .ok_or(WireError::Malformed("cell index overflows"))?;
            }
            if idx >= total {
                return Err(WireError::Malformed("cell index outside geometry"));
            }
            cells[idx] = Cell {
                count: r.get_zigzag()?,
                set_sum: r.get_zigzag()? as u64,
                elem_sum: r.get_zigzag()? as u64,
                check_sum: r.get_u64()?,
            };
        }
        if !r.is_done() {
            return Err(WireError::Malformed("leftover payload bytes"));
        }
        Ok(DynamicSnapshot::from_parts(
            raw_seed, params, counters, cells,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynamicSketch, DynamicSketchParams};
    use crate::frame::{CHECKSUM_LEN, HEADER_LEN};
    use crate::params::SketchParams;
    use crate::threshold::ThresholdSketch;
    use coverage_core::Edge;
    use coverage_stream::{SignedEdge, VecDynamicStream, VecStream};

    fn sample_snapshot() -> SketchSnapshot {
        let params = SketchParams::with_budget(8, 2, 0.5, 150);
        let mut edges = Vec::new();
        for s in 0..8u32 {
            for e in 0..400u64 {
                if !(e + s as u64).is_multiple_of(3) {
                    edges.push(Edge::new(s, e * 17 + s as u64));
                }
            }
        }
        let sketch = ThresholdSketch::from_stream(params, 42, &VecStream::new(8, edges));
        SketchSnapshot::of(&sketch)
    }

    fn sample_dynamic_snapshot() -> DynamicSnapshot {
        let base = SketchParams::with_budget(5, 2, 0.5, 120);
        let params = DynamicSketchParams::new(base);
        let mut ups = Vec::new();
        for s in 0..5u32 {
            for e in 0..300u64 {
                ups.push(SignedEdge::insert(Edge::new(s, e * 3 + s as u64)));
            }
        }
        for s in 0..5u32 {
            for e in 0..300u64 {
                if e % 4 == 0 {
                    ups.push(SignedEdge::delete(Edge::new(s, e * 3 + s as u64)));
                }
            }
        }
        let sketch = DynamicSketch::from_stream(params, 9, &VecDynamicStream::new(5, ups));
        DynamicSnapshot::of(&sketch)
    }

    #[test]
    fn threshold_roundtrip_is_bit_identical() {
        let snap = sample_snapshot();
        let frame = snap.encode_binary();
        let back = SketchSnapshot::decode_binary(&frame).expect("valid frame");
        assert_eq!(back, snap);
        assert_eq!(
            back.restore().canonical_content(),
            snap.restore().canonical_content()
        );
    }

    #[test]
    fn dynamic_roundtrip_is_bit_identical() {
        let snap = sample_dynamic_snapshot();
        let frame = snap.encode_binary();
        let back = DynamicSnapshot::decode_binary(&frame).expect("valid frame");
        assert_eq!(back, snap);
        let (a, b) = (
            snap.restore().recover().unwrap(),
            back.restore().recover().unwrap(),
        );
        assert_eq!(a.level, b.level);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let snap = sample_snapshot();
        let bin = snap.encode_binary().len();
        let json = snap.to_json().len();
        assert!(
            bin * 5 <= json,
            "binary {bin}B should be at least 5x smaller than JSON {json}B"
        );
        let dsnap = sample_dynamic_snapshot();
        let dbin = dsnap.encode_binary().len();
        let djson = dsnap.to_json().len();
        assert!(
            dbin * 5 <= djson,
            "dynamic binary {dbin}B should be at least 5x smaller than JSON {djson}B"
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let params = SketchParams::with_budget(3, 1, 0.5, 10);
        let sketch = ThresholdSketch::new(params, 1);
        let snap = SketchSnapshot::of(&sketch);
        let back = SketchSnapshot::decode_binary(&snap.encode_binary()).unwrap();
        assert_eq!(back, snap);
        let d = DynamicSketch::new(DynamicSketchParams::new(params), 1);
        let dsnap = DynamicSnapshot::of(&d);
        let dback = DynamicSnapshot::decode_binary(&dsnap.encode_binary()).unwrap();
        assert_eq!(dback, dsnap);
    }

    #[test]
    fn non_canonical_snapshots_still_roundtrip() {
        // Hand-built snapshot: unsorted keys AND hashes that are not
        // h(key) — both fallback flags engage, round-trip stays exact.
        let params = SketchParams::with_budget(4, 1, 0.5, 10);
        let snap = SketchSnapshot {
            raw_seed: 123,
            params,
            bound: u64::MAX,
            entries: vec![
                SnapshotEntry {
                    key: 50,
                    hash: 7,
                    sets: vec![1, 3],
                    truncated: true,
                },
                SnapshotEntry {
                    key: 10,
                    hash: 9,
                    sets: vec![0],
                    truncated: false,
                },
            ],
            counters: SketchCounters::default(),
        };
        let back = SketchSnapshot::decode_binary(&snap.encode_binary()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut frame = sample_snapshot().encode_binary();
        frame[0] ^= 0xff;
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::BadMagic)
        );
    }

    #[test]
    fn rejects_version_bump() {
        let mut frame = sample_snapshot().encode_binary();
        frame[4] = 2;
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::UnsupportedVersion { found: 2 })
        );
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut frame = sample_snapshot().encode_binary();
        frame[6] = 9;
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::UnknownKind { found: 9 })
        );
    }

    #[test]
    fn rejects_wrong_kind() {
        let frame = sample_dynamic_snapshot().encode_binary();
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::WrongKind {
                expected: PayloadKind::Threshold,
                found: PayloadKind::Dynamic,
            })
        );
        let frame = sample_snapshot().encode_binary();
        assert_eq!(
            DynamicSnapshot::decode_binary(&frame),
            Err(WireError::WrongKind {
                expected: PayloadKind::Dynamic,
                found: PayloadKind::Threshold,
            })
        );
    }

    #[test]
    fn rejects_every_truncation_length() {
        let frame = sample_snapshot().encode_binary();
        for cut in 0..frame.len() {
            let err = SketchSnapshot::decode_binary(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut frame = sample_snapshot().encode_binary();
        frame.push(0);
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn payload_bit_flips_hit_the_checksum() {
        let frame = sample_snapshot().encode_binary();
        for &offset in &[HEADER_LEN, HEADER_LEN + 7, frame.len() - CHECKSUM_LEN - 1] {
            let mut bad = frame.clone();
            bad[offset] ^= 0x40;
            assert_eq!(
                SketchSnapshot::decode_binary(&bad),
                Err(WireError::ChecksumMismatch),
                "flip at {offset}"
            );
        }
    }

    #[test]
    fn invariant_violations_are_typed_not_panics() {
        // Entry above the bound: re-encode a corrupt snapshot via the
        // explicit-hash fallback, then decode must refuse.
        let mut snap = sample_snapshot();
        assert!(!snap.entries.is_empty());
        snap.entries[0].hash = u64::MAX;
        snap.bound = 1;
        let frame = snap.encode_binary();
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::Invariant(
                "entry hashes above the acceptance bound"
            ))
        );
        // Degree-cap overflow.
        let mut snap = sample_snapshot();
        snap.entries[0].sets = (0..snap.params.degree_cap as u32 + 1).collect();
        let frame = snap.encode_binary();
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::Invariant("entry exceeds the degree cap"))
        );
    }

    #[test]
    fn decoded_dynamic_restore_matches_original() {
        let snap = sample_dynamic_snapshot();
        let restored = DynamicSnapshot::decode_binary(&snap.encode_binary())
            .unwrap()
            .restore();
        let original = snap.restore();
        let mut a = restored.clone();
        let mut b = original.clone();
        let extra = SignedEdge::insert(Edge::new(1u32, 987_654u64));
        a.update(extra);
        b.update(extra);
        assert_eq!(
            DynamicSnapshot::of(&a),
            DynamicSnapshot::of(&b),
            "restored sketch must keep evolving identically"
        );
    }
}
