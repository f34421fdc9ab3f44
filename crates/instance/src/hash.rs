//! Stable content hashing for instances and derived artefacts.
//!
//! Two primitives, both specified bit for bit so hashes survive
//! platform, process and Rust-version changes, which resumable record
//! logs and cross-process cache keys require:
//!
//! * **FNV-1a, 64-bit** ([`fnv1a64`]) over bytes: delta ids
//!   (`Lineage::delta`), campaign job ids, checksums. The word-folded
//!   [`fnv1a64_words`] checksums storage payloads.
//! * **Instance hash v2** ([`instance_hash`]), the one canonical
//!   instance identity (the wire `hash:`, the result cache, the
//!   instance store, delta revisions). It hashes the parsed
//!   structure, never a rendering of it: a *header term* plus one
//!   *entry term* per row entry, summed with wrapping addition, then
//!   finalized. The header, each row's *key* and the sum go through
//!   `absorb`, a splitmix64 finalizer step; entry terms go through
//!   `mix`, one odd multiply and one xorshift:
//!
//!   ```text
//!   fmix(z)      = z ^= z >> 30; z *= 0xbf58476d1ce4e5b9;
//!                  z ^= z >> 27; z *= 0x94d049bb133111eb; z ^= z >> 31
//!   absorb(h, w) = fmix(h ^ w)
//!   mix(h, w)    = z = (h ^ w) * SEED; z ^ (z >> 32)
//!   SEED         = 0x9e3779b97f4a7c15
//!   header       = absorb(absorb(absorb(absorb(SEED, 'h'), n_agents),
//!                         n_constraints), n_objectives)
//!   key(t, i, r) = absorb(absorb(SEED, t), i·2³² + len r)
//!   row(t, i, r) = Σⱼ mix(mix(key(t, i, r), j·2³² + agentⱼ), bitsⱼ)
//!   sum          = header + Σᵢ row('c', i, Aᵢ) + Σₖ row('o', k, Cₖ)
//!   hash         = absorb(sum, 0)
//!   ```
//!
//!   All arithmetic wraps mod 2⁶⁴. Tags are the ASCII bytes (`'h'` =
//!   0x68, `'c'` = 0x63, `'o'` = 0x6f); counts are zero-extended to 64
//!   bits, and row indices, row lengths, ports and agent ids are below
//!   2³² (the instance stores them as `u32`). `j` is the entry's port
//!   (its position in the row, from 0),
//!   `agentⱼ` its agent id and `bitsⱼ` its coefficient's
//!   `f64::to_bits`. Text that differs only in comments, blank lines,
//!   whitespace, line endings or the spelling of a coefficient parses
//!   to the same structure and so hashes the same. A change of the
//!   agent count, of one agent id or of one coefficient bit changes
//!   exactly one term, through steps that are bijections of the word
//!   they absorb (and the last step is a bijection of the sum), so it
//!   always changes the hash. Any other change (rows added, removed or
//!   reordered, ports reordered) changes it unless the changed terms
//!   happen to sum alike, as for any 64-bit hash.
//!
//!   Because the terms combine by addition, a coefficient edit updates
//!   the sum ([`instance_sum`]) in O(row): subtract the row's old term
//!   ([`constraint_term`]) and add its new one; [`hash_of_sum`] then
//!   names the revision. That is how `mmlp-core`'s dynamic solver
//!   keeps its revision's identity.
//!
//!   Version 1 was FNV-1a over the canonical text
//!   ([`crate::textfmt::write_instance`]). Stores keep the keys their
//!   records were written with (`specs/STORAGE.md`).

use crate::ids::ConstraintId;
use crate::instance::{Entry, Instance};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a hasher, for hashing without materialising the
/// full input (e.g. streaming a serialisation).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts from the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Throughput-oriented FNV-1a variant folding **8-byte words** instead
/// of single bytes: each little-endian `u64` word (and one final
/// length-prefixed remainder word) goes through the standard
/// xor-multiply step. This is *not* byte-serial FNV-1a — it trades the
/// published test vectors for ~8× fewer serial multiplies, which
/// matters when checksumming megabytes of storage payloads. Used by
/// `mmlp-store` for section and record checksums (`specs/STORAGE.md`);
/// byte identities that must stay canonical (delta ids, job ids) keep
/// byte-serial [`fnv1a64`].
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Fold the 0–7 remainder bytes together with the total length, so
    // trailing zero bytes and pure length changes still perturb the
    // hash.
    let mut tail = [0u8; 8];
    let rem = chunks.remainder();
    tail[..rem.len()].copy_from_slice(rem);
    h ^= u64::from_le_bytes(tail);
    h = h.wrapping_mul(FNV_PRIME);
    h ^= bytes.len() as u64;
    h.wrapping_mul(FNV_PRIME)
}

/// The starting state of every hash-v2 chain, and the odd multiplier
/// of its light step.
const V2_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The full hash-v2 step: the splitmix64 finalizer of `h ^ w`.
#[inline]
fn absorb(h: u64, w: u64) -> u64 {
    let mut z = h ^ w;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The light hash-v2 step: one odd multiply and one xorshift of
/// `h ^ w`, a bijection of either argument with the other fixed.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let z = (h ^ w).wrapping_mul(V2_SEED);
    z ^ (z >> 32)
}

/// The hash-v2 term of one row, `tagged` being `absorb(SEED, tag)`:
/// the sum of its entry terms, each of which mixes the row's key with
/// the entry's port and agent id packed into one word, then with its
/// coefficient bits. Entry terms depend on the key only, not on each
/// other, so a row's entries hash in parallel.
fn row_term(tagged: u64, index: u32, row: &[Entry]) -> u64 {
    let key = absorb(tagged, u64::from(index) << 32 | row.len() as u64);
    let mut sum = 0u64;
    for (port, e) in row.iter().enumerate() {
        let at = (port as u64) << 32 | u64::from(e.agent.raw());
        sum = sum.wrapping_add(mix(mix(key, at), e.coef.to_bits()));
    }
    sum
}

/// The hash-v2 term of constraint row `i`. A coefficient edit of that
/// row changes [`instance_sum`] by the row's new term minus its old.
pub fn constraint_term(inst: &Instance, i: ConstraintId) -> u64 {
    row_term(
        absorb(V2_SEED, u64::from(b'c')),
        i.raw(),
        inst.constraint_row(i),
    )
}

/// Hash v2 before its last step: the header term plus every row's
/// term, wrapping. [`hash_of_sum`] finishes it.
pub fn instance_sum(inst: &Instance) -> u64 {
    let mut h = absorb(V2_SEED, u64::from(b'h'));
    h = absorb(h, inst.n_agents() as u64);
    h = absorb(h, inst.n_constraints() as u64);
    h = absorb(h, inst.n_objectives() as u64);
    let tagged = absorb(V2_SEED, u64::from(b'c'));
    for i in inst.constraints() {
        h = h.wrapping_add(row_term(tagged, i.raw(), inst.constraint_row(i)));
    }
    let tagged = absorb(V2_SEED, u64::from(b'o'));
    for k in inst.objectives() {
        h = h.wrapping_add(row_term(tagged, k.raw(), inst.objective_row(k)));
    }
    h
}

/// The content hash of an instance whose [`instance_sum`] is `sum`:
/// one finalizer, which spreads every bit of the sum over the low bits
/// that pick cache and store shards.
pub fn hash_of_sum(sum: u64) -> u64 {
    absorb(sum, 0)
}

/// The canonical content hash of an instance, hash v2 (see the module
/// docs).
pub fn instance_hash(inst: &Instance) -> u64 {
    hash_of_sum(instance_sum(inst))
}

/// Renders a content hash in the canonical 16-hex-digit form used in
/// record logs and on the service wire protocol.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Inverse of [`hash_hex`]; rejects anything but exactly 16 hex digits.
pub fn parse_hash_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::textfmt;

    const PROBE_EMPTY: u64 = 0x73a8_fe4a_3373_b5d5;
    const PROBE_SAMPLE: u64 = 0x3dcd_b0db_bb64_e717;
    const PROBE_THREE: u64 = 0x9c88_8b4e_d9e1_963a;

    fn sample(coef: f64) -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        b.add_constraint(&[(v0, coef), (v1, 1.0)]).unwrap();
        b.add_objective(&[(v0, 1.0)]).unwrap();
        b.add_objective(&[(v1, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        // Standard FNV-1a 64-bit vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_hashing_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn word_fnv_is_stable_and_discriminating() {
        // Pinned vectors: a change would silently orphan every stored
        // segment checksum, so it must be deliberate.
        assert_eq!(fnv1a64_words(b""), 0x0832_8807_b4eb_6fed);
        assert_eq!(fnv1a64_words(b"foobar"), 0xa1a0_7343_0586_a9ed);
        // Distinguishes lengths, trailing zeros and single-bit flips.
        assert_ne!(fnv1a64_words(b"x"), fnv1a64_words(b"x\0"));
        assert_ne!(fnv1a64_words(&[0u8; 8]), fnv1a64_words(&[0u8; 16]));
        let a = vec![0xabu8; 4096];
        let mut b = a.clone();
        b[2049] ^= 0x01;
        assert_ne!(fnv1a64_words(&a), fnv1a64_words(&b));
    }

    #[test]
    fn instance_hash_v2_matches_its_test_vectors() {
        // Pinned: a change would orphan every stored instance key and
        // every client-held hash, so it must be deliberate. Each vector
        // is also derivable by hand from the module docs' spec.
        let parse = |t: &str| textfmt::parse_instance(t).unwrap();
        assert_eq!(instance_hash(&parse("maxminlp 1\nagents 0\n")), PROBE_EMPTY);
        assert_eq!(instance_hash(&sample(0.5)), PROBE_SAMPLE);
        assert_eq!(
            instance_hash(&parse(
                "maxminlp 1\nagents 3\nc 2:0.1 0:3\no 1:1\no 0:1 2:1\n"
            )),
            PROBE_THREE
        );
    }

    #[test]
    fn instance_hash_is_content_based() {
        assert_eq!(instance_hash(&sample(0.5)), instance_hash(&sample(0.5)));
        assert_ne!(instance_hash(&sample(0.5)), instance_hash(&sample(0.25)));
        // Not v1: FNV-1a of the canonical text names nothing any more.
        let v1 = fnv1a64(textfmt::write_instance(&sample(0.5)).as_bytes());
        assert_ne!(instance_hash(&sample(0.5)), v1);
    }

    #[test]
    fn instance_hash_ignores_surface_syntax() {
        // Re-parsing a noisy rendering (comments, CRLF) of the same
        // instance must land on the same canonical hash.
        let inst = sample(0.5);
        let noisy = textfmt::write_instance(&inst).replace('\n', "  # c\r\n");
        let back = textfmt::parse_instance(&noisy).unwrap();
        assert_eq!(instance_hash(&inst), instance_hash(&back));
    }

    #[test]
    fn a_coefficient_edit_swaps_one_row_term() {
        let mut inst = sample(0.5);
        let i = ConstraintId::new(0);
        let before = instance_sum(&inst);
        let old = constraint_term(&inst, i);
        inst.set_constraint_coefs(i, &[0.1 + 0.2, 1.0]).unwrap();
        let updated = before
            .wrapping_sub(old)
            .wrapping_add(constraint_term(&inst, i));
        assert_eq!(updated, instance_sum(&inst));
        assert_eq!(hash_of_sum(updated), instance_hash(&inst));
        assert_ne!(updated, before);
    }

    #[test]
    fn coefficient_bits_reach_the_low_bits() {
        // Coefficients whose low mantissa bits are all zero still pick
        // different cache and store shards (the hash's low bits).
        let nibbles: std::collections::HashSet<u64> = (0..24)
            .map(|k| instance_hash(&sample(0.25 + k as f64)) & 0xf)
            .collect();
        assert!(nibbles.len() >= 8, "{nibbles:?}");
    }

    #[test]
    fn hex_round_trips_and_rejects_junk() {
        let h = fnv1a64(b"x");
        assert_eq!(parse_hash_hex(&hash_hex(h)), Some(h));
        assert_eq!(parse_hash_hex("abc"), None);
        assert_eq!(parse_hash_hex("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(parse_hash_hex("00112233445566778"), None);
    }
}
