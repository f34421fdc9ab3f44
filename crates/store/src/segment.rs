//! Segment-file framing: the append-only on-disk record format of one
//! shard, and the scanner that rebuilds an index from it.
//!
//! ```text
//! segment  magic "MMLPSEG1" · version u16 · shard u16 · reserved u32      (16 bytes)
//! record   kind u8 · payload_len u32 · fnv1a64_words(payload) u64 · payload   (13-byte header)
//! ```
//!
//! Two record kinds exist: an **instance** record (content hash + the
//! binary-codec blob) and a **result** record (a [`ResultKey`] + an
//! opaque UTF-8 reply body). Records are only ever appended; a key
//! written twice is superseded by its later record (**last wins**),
//! and `gc` reclaims the space.
//!
//! The scanner distinguishes two kinds of damage:
//!
//! * **Framing damage** — a header that cannot be read (truncated tail,
//!   impossible kind byte, declared length running past EOF). Everything
//!   from the damaged offset on is unusable, so recovery *truncates*
//!   there. This is exactly what a crash mid-append leaves behind.
//! * **Payload damage** — intact framing but a checksum mismatch (bit
//!   rot, torn sector inside a record). The record is *skipped* and
//!   scanning continues; `gc` drops it physically.

use mmlp_instance::hash::fnv1a64_words;

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: [u8; 8] = *b"MMLPSEG1";
/// Segment format version.
pub const SEG_VERSION: u16 = 1;
/// Size of the fixed segment header.
pub const SEG_HEADER_LEN: usize = 16;
/// Size of the fixed per-record header.
pub const REC_HEADER_LEN: usize = 13;

/// Record kind byte: an instance blob.
pub const KIND_INSTANCE: u8 = 1;
/// Record kind byte: a solved-result body.
pub const KIND_RESULT: u8 = 2;

/// The identity of one persisted result: everything that determines a
/// deterministic reply body. `op` is an opaque namespace byte — the
/// solver service uses 1–4 (`SOLVE`/`OPTIMUM`/`SAFE`/`INFO`), the lab
/// spiller 16–19 (one per `SolverKind`) — so producers never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResultKey {
    /// Canonical content hash of the instance.
    pub instance: u64,
    /// Operation namespace byte.
    pub op: u8,
    /// Locality parameter (0 where irrelevant).
    pub big_r: u32,
    /// Part of the record format. The solver service writes 1 (0 for
    /// lineage records) and maps every value it reads onto one cache
    /// key; the lab spiller writes 0.
    pub threads: u32,
}

/// One decoded record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// An instance blob keyed by its canonical content hash.
    Instance {
        /// `mmlp_instance::hash::instance_hash` of the blob's content.
        hash: u64,
        /// Binary-codec bytes ([`crate::codec`]).
        blob: Vec<u8>,
    },
    /// A solved-result body.
    Result {
        /// The result's identity.
        key: ResultKey,
        /// Opaque UTF-8 reply body.
        body: Vec<u8>,
    },
}

impl Record {
    /// The record's kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Record::Instance { .. } => KIND_INSTANCE,
            Record::Result { .. } => KIND_RESULT,
        }
    }

    /// Serialises the payload (everything after the record header).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            Record::Instance { hash, blob } => {
                let mut p = Vec::with_capacity(8 + blob.len());
                p.extend_from_slice(&hash.to_le_bytes());
                p.extend_from_slice(blob);
                p
            }
            Record::Result { key, body } => {
                let mut p = Vec::with_capacity(17 + body.len());
                p.extend_from_slice(&key.instance.to_le_bytes());
                p.push(key.op);
                p.extend_from_slice(&key.big_r.to_le_bytes());
                p.extend_from_slice(&key.threads.to_le_bytes());
                p.extend_from_slice(body);
                p
            }
        }
    }

    /// Frames the record for appending: header + payload. Errors on a
    /// payload too large for the u32 length field (writing it would
    /// corrupt the segment: the declared length would wrap and the
    /// next scan would truncate everything after it).
    pub fn encode(&self) -> std::io::Result<Vec<u8>> {
        let payload = self.encode_payload();
        if payload.len() > (u32::MAX as usize) - REC_HEADER_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "record payload of {} bytes exceeds the segment format's u32 length field",
                    payload.len()
                ),
            ));
        }
        let mut out = Vec::with_capacity(REC_HEADER_LEN + payload.len());
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64_words(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }
}

/// One record's payload, borrowed from the bytes it was read from. The
/// scanner and the single-record reader hand these out, so nothing is
/// copied that the caller does not keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordRef<'a> {
    /// An instance blob keyed by its canonical content hash.
    Instance {
        /// `mmlp_instance::hash::instance_hash` of the blob's content.
        hash: u64,
        /// Binary-codec bytes ([`crate::codec`]).
        blob: &'a [u8],
    },
    /// A solved-result body.
    Result {
        /// The result's identity.
        key: ResultKey,
        /// Opaque UTF-8 reply body.
        body: &'a [u8],
    },
}

impl<'a> RecordRef<'a> {
    /// Parses a checksum-verified payload, borrowing its blob or body.
    pub fn decode_payload(kind: u8, payload: &'a [u8]) -> Option<RecordRef<'a>> {
        match kind {
            KIND_INSTANCE => {
                if payload.len() < 8 {
                    return None;
                }
                Some(RecordRef::Instance {
                    hash: u64::from_le_bytes(payload[..8].try_into().ok()?),
                    blob: &payload[8..],
                })
            }
            KIND_RESULT => {
                if payload.len() < 17 {
                    return None;
                }
                Some(RecordRef::Result {
                    key: ResultKey {
                        instance: u64::from_le_bytes(payload[..8].try_into().ok()?),
                        op: payload[8],
                        big_r: u32::from_le_bytes(payload[9..13].try_into().ok()?),
                        threads: u32::from_le_bytes(payload[13..17].try_into().ok()?),
                    },
                    body: &payload[17..],
                })
            }
            _ => None,
        }
    }

    /// An owned copy.
    pub fn to_record(self) -> Record {
        match self {
            RecordRef::Instance { hash, blob } => Record::Instance {
                hash,
                blob: blob.to_vec(),
            },
            RecordRef::Result { key, body } => Record::Result {
                key,
                body: body.to_vec(),
            },
        }
    }
}

impl<'a> From<&'a Record> for RecordRef<'a> {
    fn from(record: &'a Record) -> RecordRef<'a> {
        match record {
            Record::Instance { hash, blob } => RecordRef::Instance { hash: *hash, blob },
            Record::Result { key, body } => RecordRef::Result { key: *key, body },
        }
    }
}

/// The 16-byte header opening a shard's segment file.
pub fn segment_header(shard: u16) -> [u8; SEG_HEADER_LEN] {
    let mut h = [0u8; SEG_HEADER_LEN];
    h[..8].copy_from_slice(&SEG_MAGIC);
    h[8..10].copy_from_slice(&SEG_VERSION.to_le_bytes());
    h[10..12].copy_from_slice(&shard.to_le_bytes());
    h
}

/// One scanned record with its position in the segment.
#[derive(Clone, Copy, Debug)]
pub struct ScannedRecord<'a> {
    /// Byte offset of the record header within the segment file.
    pub offset: u64,
    /// Total framed length (header + payload).
    pub len: u32,
    /// The decoded record, borrowed from the scanned buffer.
    pub record: RecordRef<'a>,
}

/// Outcome of scanning one segment buffer.
#[derive(Clone, Debug, Default)]
pub struct ScanReport {
    /// Offset at which framing damage was found; everything from here
    /// on must be truncated. `None` when the segment scanned clean.
    pub torn_at: Option<u64>,
    /// Offsets of records dropped for payload damage (bad checksum or
    /// an unparseable checksummed payload).
    pub corrupt_at: Vec<u64>,
}

/// What the framed record opening a buffer turned out to be.
enum Framed<'a> {
    /// A verified record and its framed length.
    Live(RecordRef<'a>, usize),
    /// Intact framing around a damaged payload, of this framed length.
    Corrupt(usize),
    /// Framing damage: nothing from here on can be read.
    Torn,
}

/// Reads the framed record at the start of `rest`, verifying its
/// checksum in place.
fn frame(rest: &[u8]) -> Framed<'_> {
    if rest.len() < REC_HEADER_LEN {
        return Framed::Torn;
    }
    let kind = rest[0];
    if kind != KIND_INSTANCE && kind != KIND_RESULT {
        return Framed::Torn;
    }
    let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
    if len > (u32::MAX as usize) - REC_HEADER_LEN {
        // A length the writer could never have framed: damage.
        return Framed::Torn;
    }
    let Some(payload) = rest.get(REC_HEADER_LEN..REC_HEADER_LEN + len) else {
        return Framed::Torn;
    };
    let want = u64::from_le_bytes(rest[5..13].try_into().expect("8 bytes"));
    let framed_len = REC_HEADER_LEN + len;
    if fnv1a64_words(payload) != want {
        return Framed::Corrupt(framed_len);
    }
    match RecordRef::decode_payload(kind, payload) {
        Some(record) => Framed::Live(record, framed_len),
        None => Framed::Corrupt(framed_len),
    }
}

/// Verifies one framed record (header + payload) that fills `framed`
/// exactly, in place: `None` on any damage or trailing bytes.
pub fn read_framed(framed: &[u8]) -> Option<RecordRef<'_>> {
    match frame(framed) {
        Framed::Live(record, len) if len == framed.len() => Some(record),
        _ => None,
    }
}

/// Scans a full segment buffer (header included). Returns the live
/// records, borrowed from `buf`, plus the damage report. A missing or
/// damaged *segment header* reads as torn at offset 0 (the whole file
/// is rewritten on the next append).
pub fn scan_segment(buf: &[u8]) -> (Vec<ScannedRecord<'_>>, ScanReport) {
    let mut records = Vec::new();
    let mut report = ScanReport::default();
    if buf.len() < SEG_HEADER_LEN
        || buf[..8] != SEG_MAGIC
        || u16::from_le_bytes([buf[8], buf[9]]) != SEG_VERSION
    {
        report.torn_at = Some(0);
        return (records, report);
    }
    let mut pos = SEG_HEADER_LEN;
    while pos < buf.len() {
        let len = match frame(&buf[pos..]) {
            Framed::Live(record, len) => {
                records.push(ScannedRecord {
                    offset: pos as u64,
                    len: len as u32,
                    record,
                });
                len
            }
            Framed::Corrupt(len) => {
                report.corrupt_at.push(pos as u64);
                len
            }
            Framed::Torn => {
                report.torn_at = Some(pos as u64);
                break;
            }
        };
        pos += len;
    }
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Instance {
                hash: 0xdead_beef_0011_2233,
                blob: vec![1, 2, 3, 4],
            },
            Record::Result {
                key: ResultKey {
                    instance: 0xdead_beef_0011_2233,
                    op: 1,
                    big_r: 3,
                    threads: 2,
                },
                body: b"utility 0.5\n".to_vec(),
            },
        ]
    }

    fn segment_with(records: &[Record]) -> Vec<u8> {
        let mut buf = segment_header(7).to_vec();
        for r in records {
            buf.extend_from_slice(&r.encode().unwrap());
        }
        buf
    }

    #[test]
    fn encode_scan_round_trips() {
        let recs = sample_records();
        let buf = segment_with(&recs);
        let (scanned, report) = scan_segment(&buf);
        assert!(report.torn_at.is_none());
        assert!(report.corrupt_at.is_empty());
        assert_eq!(
            scanned
                .iter()
                .map(|s| s.record.to_record())
                .collect::<Vec<_>>(),
            recs
        );
        // Offsets tile the file exactly.
        assert_eq!(scanned[0].offset as usize, SEG_HEADER_LEN);
        assert_eq!(
            scanned[1].offset,
            scanned[0].offset + u64::from(scanned[0].len)
        );
        assert_eq!(
            scanned[1].offset + u64::from(scanned[1].len),
            buf.len() as u64
        );
    }

    #[test]
    fn torn_tail_is_reported_at_the_record_boundary() {
        let recs = sample_records();
        let buf = segment_with(&recs);
        let second_start = {
            let (scanned, _) = scan_segment(&buf);
            scanned[1].offset as usize
        };
        // Cut anywhere inside the second record: the first survives and
        // the tear is reported exactly at the second record's start.
        for cut in second_start + 1..buf.len() {
            let (scanned, report) = scan_segment(&buf[..cut]);
            assert_eq!(scanned.len(), 1, "cut at {cut}");
            assert_eq!(report.torn_at, Some(second_start as u64), "cut at {cut}");
        }
    }

    #[test]
    fn checksum_damage_skips_only_that_record() {
        let recs = sample_records();
        let mut buf = segment_with(&recs);
        // Flip a byte inside the first record's payload.
        let victim = SEG_HEADER_LEN + REC_HEADER_LEN + 2;
        buf[victim] ^= 0xff;
        let (scanned, report) = scan_segment(&buf);
        assert_eq!(scanned.len(), 1);
        assert_eq!(
            scanned[0].record.to_record(),
            recs[1],
            "second record survives"
        );
        assert_eq!(report.corrupt_at, vec![SEG_HEADER_LEN as u64]);
        assert!(report.torn_at.is_none());
    }

    #[test]
    fn bad_segment_header_is_torn_at_zero() {
        let (scanned, report) = scan_segment(b"garbage");
        assert!(scanned.is_empty());
        assert_eq!(report.torn_at, Some(0));
        let mut buf = segment_with(&sample_records());
        buf[0] ^= 1;
        let (scanned, report) = scan_segment(&buf);
        assert!(scanned.is_empty());
        assert_eq!(report.torn_at, Some(0));
    }

    #[test]
    fn impossible_kind_byte_truncates_from_there() {
        let recs = sample_records();
        let mut buf = segment_with(&recs);
        let second_start = SEG_HEADER_LEN + REC_HEADER_LEN + recs[0].encode_payload().len();
        buf[second_start] = 0x77; // not a valid kind
        let (scanned, report) = scan_segment(&buf);
        assert_eq!(scanned.len(), 1);
        assert_eq!(report.torn_at, Some(second_start as u64));
    }

    #[test]
    fn empty_segment_scans_clean() {
        let buf = segment_header(0).to_vec();
        let (scanned, report) = scan_segment(&buf);
        assert!(scanned.is_empty());
        assert!(report.torn_at.is_none());
    }

    #[test]
    fn one_framed_record_is_verified_in_place() {
        for rec in sample_records() {
            let framed = rec.encode().unwrap();
            let got = read_framed(&framed).expect("verifies");
            assert_eq!(got.to_record(), rec);
            // A flipped payload byte, a trailing byte or a short read
            // all fail.
            let mut flipped = framed.clone();
            *flipped.last_mut().unwrap() ^= 1;
            assert!(read_framed(&flipped).is_none());
            let mut longer = framed.clone();
            longer.push(0);
            assert!(read_framed(&longer).is_none());
            assert!(read_framed(&framed[..framed.len() - 1]).is_none());
        }
    }
}
