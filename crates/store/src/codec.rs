//! The versioned, checksummed binary codec for [`Instance`] and
//! [`Solution`] — the disk/wire twin of `mmlp_instance::textfmt`.
//!
//! Layout (all integers little-endian, varints are LEB128):
//!
//! ```text
//! header   magic "MLPB" · version u16 · kind u8 (1=instance, 2=solution) · 0u8
//! section  tag u8 · payload_len varint · payload · fnv1a64(payload) u64
//! ```
//!
//! An **instance** is three sections in fixed order: `DIMS` (agent,
//! constraint and objective counts plus both edge counts), then `CONS`
//! and `OBJS`, each a struct-of-arrays row block: every row's length
//! as a varint, then every entry's agent id as a varint (rows
//! concatenated in order), then every entry's coefficient as raw
//! little-endian `f64` bits. Splitting ids from coefficients keeps the
//! coefficient read a branch-free bulk pass, which is most of the
//! decode speed. A **solution** is `DIMS` (value count) then `VALS`
//! (dense `f64` bits). Coefficients travel as IEEE-754 bit patterns, so a
//! round trip is **bit-identical** — decode(encode(i)) has the same
//! rows, in the same order, down to the float bits, hence the same
//! canonical text serialisation and the same
//! [`mmlp_instance::hash::instance_hash`] as `i`. Decoding goes
//! through [`Instance::from_csr`], which enforces every shape and
//! coefficient invariant the incremental builder would, so untrusted
//! bytes cannot produce an instance the builder would have rejected.
//!
//! Decoding does no float *parsing* (the dominant cost of the text
//! format) and checksums with the word-folded FNV variant
//! ([`fnv1a64_words`]), which is where the multiple-× speedup measured
//! by the `store_codec` bench comes from.

use crate::varint::{read_u64, write_u64};
use mmlp_instance::hash::fnv1a64_words;
use mmlp_instance::{AgentId, Entry, Instance, Solution};

/// 4-byte magic opening every codec blob.
pub const MAGIC: [u8; 4] = *b"MLPB";
/// Current format version.
pub const VERSION: u16 = 1;

const KIND_INSTANCE: u8 = 1;
const KIND_SOLUTION: u8 = 2;

const SEC_DIMS: u8 = 1;
const SEC_CONS: u8 = 2;
const SEC_OBJS: u8 = 3;
const SEC_VALS: u8 = 4;

/// A decode failure: the byte offset where it was detected and what
/// was expected there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the blob where decoding failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Prefixes the message with where in the blob it happened.
    fn in_context(mut self, what: &str) -> CodecError {
        self.message = format!("{what}: {}", self.message);
        self
    }
}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError {
        offset,
        message: message.into(),
    })
}

fn push_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.push(0);
}

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    write_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64_words(payload).to_le_bytes());
}

/// Serialises one row block (`CONS`/`OBJS`) as struct-of-arrays.
fn push_row_section<'r>(
    out: &mut Vec<u8>,
    tag: u8,
    rows: impl Iterator<Item = &'r [Entry]> + Clone,
    n_edges: usize,
) {
    let mut payload = Vec::with_capacity(10 * n_edges);
    for row in rows.clone() {
        write_u64(&mut payload, row.len() as u64);
    }
    for row in rows.clone() {
        for e in row {
            write_u64(&mut payload, u64::from(e.agent.raw()));
        }
    }
    for row in rows {
        for e in row {
            payload.extend_from_slice(&e.coef.to_bits().to_le_bytes());
        }
    }
    push_section(out, tag, &payload);
}

/// Encodes an instance into the binary format.
pub fn encode_instance(inst: &Instance) -> Vec<u8> {
    let n_edges = inst.n_constraint_edges() + inst.n_objective_edges();
    let mut out = Vec::with_capacity(64 + 10 * n_edges + 2 * inst.n_constraints());
    push_header(&mut out, KIND_INSTANCE);

    let mut dims = Vec::with_capacity(25);
    write_u64(&mut dims, inst.n_agents() as u64);
    write_u64(&mut dims, inst.n_constraints() as u64);
    write_u64(&mut dims, inst.n_objectives() as u64);
    write_u64(&mut dims, inst.n_constraint_edges() as u64);
    write_u64(&mut dims, inst.n_objective_edges() as u64);
    push_section(&mut out, SEC_DIMS, &dims);

    push_row_section(
        &mut out,
        SEC_CONS,
        inst.constraints().map(|i| inst.constraint_row(i)),
        inst.n_constraint_edges(),
    );
    push_row_section(
        &mut out,
        SEC_OBJS,
        inst.objectives().map(|k| inst.objective_row(k)),
        inst.n_objective_edges(),
    );
    out
}

/// Encodes a solution (a dense `f64` vector) into the binary format.
pub fn encode_solution(x: &Solution) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 8 * x.len());
    push_header(&mut out, KIND_SOLUTION);
    let mut dims = Vec::with_capacity(5);
    write_u64(&mut dims, x.len() as u64);
    push_section(&mut out, SEC_DIMS, &dims);
    let mut vals = Vec::with_capacity(8 * x.len());
    for v in x.as_slice() {
        vals.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    push_section(&mut out, SEC_VALS, &vals);
    out
}

/// Checks header fields, returning the kind byte and the offset past
/// the header.
fn read_header(buf: &[u8]) -> Result<(u8, usize), CodecError> {
    if buf.len() < 8 {
        return err(buf.len(), "truncated header");
    }
    if buf[..4] != MAGIC {
        return err(
            0,
            format!("bad magic {:02x?} (want {:02x?})", &buf[..4], MAGIC),
        );
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return err(4, format!("unsupported format version {version}"));
    }
    Ok((buf[6], 8))
}

/// Reads one section, verifying its tag and checksum; returns the
/// payload slice and the offset past the section.
fn read_section(buf: &[u8], pos: usize, want_tag: u8) -> Result<(&[u8], usize), CodecError> {
    let Some(&tag) = buf.get(pos) else {
        return err(pos, format!("missing section {want_tag}"));
    };
    if tag != want_tag {
        return err(pos, format!("expected section tag {want_tag}, got {tag}"));
    }
    let mut p = pos + 1;
    let Some(len) = read_u64(buf, &mut p) else {
        return err(p, "bad section length varint");
    };
    let len = usize::try_from(len).map_err(|_| CodecError {
        offset: p,
        message: "section length overflows usize".into(),
    })?;
    let payload_end = p
        .checked_add(len)
        .filter(|&e| e.checked_add(8).is_some_and(|end| end <= buf.len()))
        .ok_or_else(|| CodecError {
            offset: p,
            message: format!("section {want_tag} truncated ({len} payload bytes declared)"),
        })?;
    let payload = &buf[p..payload_end];
    let want = u64::from_le_bytes(
        buf[payload_end..payload_end + 8]
            .try_into()
            .expect("8 bytes"),
    );
    let got = fnv1a64_words(payload);
    if got != want {
        return err(
            payload_end,
            format!(
                "section {want_tag} checksum mismatch (stored {want:016x}, computed {got:016x})"
            ),
        );
    }
    Ok((payload, payload_end + 8))
}

/// Reads one struct-of-arrays row section (`CONS`/`OBJS`) straight
/// into CSR arrays. Range/positivity/duplicate validation happens
/// afterwards in bulk ([`Instance::from_csr`]); this loop only has to
/// keep framing honest. `n_edges` is the entry count declared in
/// `DIMS`, cross-checked against the row lengths.
fn read_rows(
    payload: &[u8],
    n_rows: u64,
    n_edges: u64,
) -> Result<(Vec<u32>, Vec<Entry>), CodecError> {
    // Allocation guards against absurd declared counts: every row costs
    // at least one length byte, every edge at least one id byte plus
    // eight coefficient bytes.
    if n_rows > payload.len() as u64 || n_edges.saturating_mul(9) > payload.len() as u64 {
        return err(
            0,
            format!(
                "declared {n_rows} rows / {n_edges} edges cannot fit a {}-byte section",
                payload.len()
            ),
        );
    }
    let mut off = Vec::with_capacity(n_rows as usize + 1);
    off.push(0u32);
    let mut pos = 0usize;
    let mut total: u64 = 0;
    for _ in 0..n_rows {
        let Some(len) = read_u64(payload, &mut pos) else {
            return err(pos, "bad row length varint");
        };
        total = total
            .checked_add(len)
            .filter(|&t| t <= n_edges)
            .ok_or_else(|| CodecError {
                offset: pos,
                message: format!("row lengths exceed the declared {n_edges} edges"),
            })?;
        off.push(total as u32);
    }
    if total != n_edges {
        return err(
            pos,
            format!("row lengths sum to {total}, DIMS declared {n_edges}"),
        );
    }
    let mut entries = Vec::with_capacity(n_edges as usize);
    for _ in 0..n_edges {
        let Some(agent) = read_u64(payload, &mut pos) else {
            return err(pos, "bad agent-id varint");
        };
        if agent > u64::from(u32::MAX) {
            return err(pos, format!("agent id {agent} exceeds u32"));
        }
        entries.push(Entry {
            agent: AgentId::new(agent as u32),
            coef: 0.0,
        });
    }
    let coefs = payload.len() - pos;
    if coefs as u64 != n_edges.saturating_mul(8) {
        return err(
            pos,
            format!("coefficient block is {coefs} bytes, want 8×{n_edges}"),
        );
    }
    for (e, chunk) in entries.iter_mut().zip(payload[pos..].chunks_exact(8)) {
        e.coef = f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    Ok((off, entries))
}

/// Decodes an instance from the binary format, verifying magic,
/// version, section checksums and every builder-level shape invariant.
pub fn decode_instance(buf: &[u8]) -> Result<Instance, CodecError> {
    let (kind, pos) = read_header(buf)?;
    if kind != KIND_INSTANCE {
        return err(6, format!("kind {kind} is not an instance"));
    }
    let (dims, pos) = read_section(buf, pos, SEC_DIMS)?;
    let mut dp = 0;
    let (Some(n_agents), Some(n_cons), Some(n_objs), Some(a_edges), Some(c_edges)) = (
        read_u64(dims, &mut dp),
        read_u64(dims, &mut dp),
        read_u64(dims, &mut dp),
        read_u64(dims, &mut dp),
        read_u64(dims, &mut dp),
    ) else {
        return err(pos, "bad DIMS payload");
    };
    for (what, v) in [
        ("agent count", n_agents),
        ("constraint edge count", a_edges),
        ("objective edge count", c_edges),
    ] {
        if v > u64::from(u32::MAX) {
            return err(pos, format!("{what} {v} exceeds u32"));
        }
    }

    let (cons, pos) = read_section(buf, pos, SEC_CONS)?;
    let (a_off, a_entries) =
        read_rows(cons, n_cons, a_edges).map_err(|e| e.in_context("CONS section"))?;

    let (objs, pos) = read_section(buf, pos, SEC_OBJS)?;
    let (c_off, c_entries) =
        read_rows(objs, n_objs, c_edges).map_err(|e| e.in_context("OBJS section"))?;
    if pos != buf.len() {
        return err(pos, "trailing bytes after final section");
    }
    Instance::from_csr(n_agents as u32, a_off, a_entries, c_off, c_entries).map_err(|e| {
        CodecError {
            offset: pos,
            message: e.to_string(),
        }
    })
}

/// Decodes a solution from the binary format.
pub fn decode_solution(buf: &[u8]) -> Result<Solution, CodecError> {
    let (kind, pos) = read_header(buf)?;
    if kind != KIND_SOLUTION {
        return err(6, format!("kind {kind} is not a solution"));
    }
    let (dims, pos) = read_section(buf, pos, SEC_DIMS)?;
    let mut dp = 0;
    let Some(n) = read_u64(dims, &mut dp) else {
        return err(pos, "bad DIMS payload");
    };
    let (vals, pos) = read_section(buf, pos, SEC_VALS)?;
    if vals.len() as u64 != n.saturating_mul(8) {
        return err(pos, format!("VALS length {} != 8×{n}", vals.len()));
    }
    if pos != buf.len() {
        return err(pos, "trailing bytes after final section");
    }
    let values = vals
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    Ok(Solution::from_vec(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_instance::hash::instance_hash;
    use mmlp_instance::{textfmt, InstanceBuilder};

    fn sample() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        let v2 = b.add_agent();
        b.add_constraint(&[(v1, 0.125), (v0, 3.5)]).unwrap();
        b.add_constraint(&[(v2, 1.0)]).unwrap();
        b.add_objective(&[(v0, 1.0), (v2, 1.0 / 3.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn instance_round_trips_bit_identically() {
        let inst = sample();
        let blob = encode_instance(&inst);
        let back = decode_instance(&blob).unwrap();
        assert_eq!(
            textfmt::write_instance(&back),
            textfmt::write_instance(&inst)
        );
        assert_eq!(instance_hash(&back), instance_hash(&inst));
        // Port order must survive: row 0 lists v1 before v0.
        assert_eq!(
            back.constraint_row(mmlp_instance::ConstraintId::new(0))[0]
                .agent
                .raw(),
            1
        );
    }

    #[test]
    fn binary_is_smaller_than_text_on_real_instances() {
        let inst = mmlp_gen::catalog()[0].instance(256, 7);
        let text = textfmt::write_instance(&inst);
        let blob = encode_instance(&inst);
        assert!(
            blob.len() * 2 < text.len(),
            "binary {}B vs text {}B",
            blob.len(),
            text.len()
        );
    }

    #[test]
    fn solution_round_trips_bit_identically() {
        let x = Solution::from_vec(vec![0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0]);
        let back = decode_solution(&encode_solution(&x)).unwrap();
        assert_eq!(back.len(), x.len());
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_instance_round_trips() {
        let inst = InstanceBuilder::new().build().unwrap();
        let back = decode_instance(&encode_instance(&inst)).unwrap();
        assert_eq!(back.n_agents(), 0);
        assert_eq!(back.n_constraints(), 0);
    }

    #[test]
    fn rejects_wrong_magic_version_and_kind() {
        let blob = encode_instance(&sample());
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(decode_instance(&bad).unwrap_err().message.contains("magic"));
        let mut bad = blob.clone();
        bad[4] = 9;
        assert!(decode_instance(&bad)
            .unwrap_err()
            .message
            .contains("version"));
        let sol = encode_solution(&Solution::zeros(2));
        assert!(decode_instance(&sol)
            .unwrap_err()
            .message
            .contains("not an instance"));
        assert!(decode_solution(&blob)
            .unwrap_err()
            .message
            .contains("not a solution"));
    }

    #[test]
    fn detects_bit_flips_anywhere_in_the_payloads() {
        let blob = encode_instance(&sample());
        // Flip one bit in every payload byte position; decode must never
        // silently succeed with different content.
        let canonical = textfmt::write_instance(&decode_instance(&blob).unwrap());
        for i in 8..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            if let Ok(inst) = decode_instance(&bad) {
                assert_eq!(
                    textfmt::write_instance(&inst),
                    canonical,
                    "undetected corruption at byte {i}"
                );
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let blob = encode_instance(&sample());
        for cut in 0..blob.len() {
            assert!(decode_instance(&blob[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_instance(&[]).is_err());
    }

    #[test]
    fn crafted_overflow_lengths_error_instead_of_panicking() {
        // A section-length varint near u64::MAX must fail the bounds
        // check, not wrap it.
        let mut blob = Vec::new();
        push_header(&mut blob, KIND_INSTANCE);
        blob.push(SEC_DIMS);
        write_u64(&mut blob, u64::MAX - 20);
        blob.extend_from_slice(&[0u8; 24]);
        let e = decode_instance(&blob).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");

        // Row lengths whose sum wraps u64 must be rejected by the
        // checked accumulator (a plain `+=` would panic in debug).
        let mut blob = Vec::new();
        push_header(&mut blob, KIND_INSTANCE);
        let mut dims = Vec::new();
        for v in [1u64, 2, 1, 1, 1] {
            write_u64(&mut dims, v); // 1 agent, 2 cons rows, 1 obj, 1+1 edges
        }
        push_section(&mut blob, SEC_DIMS, &dims);
        let mut cons = Vec::new();
        write_u64(&mut cons, 1);
        write_u64(&mut cons, u64::MAX);
        push_section(&mut blob, SEC_CONS, &cons);
        let e = decode_instance(&blob).unwrap_err();
        assert!(e.message.contains("row lengths"), "{e}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut blob = encode_instance(&sample());
        blob.push(0);
        let e = decode_instance(&blob).unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_agents_and_bad_coefficients() {
        // Hand-build a blob whose row references a missing agent: the
        // builder-level checks must fire through the codec path.
        let mut b = InstanceBuilder::with_agents(1);
        b.add_constraint(&[(AgentId::new(0), 1.0)]).unwrap();
        b.add_objective(&[(AgentId::new(0), 1.0)]).unwrap();
        let blob = encode_instance(&b.build().unwrap());
        // Corrupting structured fields trips either the checksum or a
        // structural check — decode can never panic.
        for i in 8..blob.len() {
            let mut bad = blob.clone();
            bad[i] = 0xff;
            let _ = decode_instance(&bad);
        }
    }
}
