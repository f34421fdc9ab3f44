//! The sharded, content-addressed, append-only on-disk store.
//!
//! A store directory holds [`N_SHARDS`] segment files
//! (`shard-00.seg` … `shard-15.seg`); a record lands in the shard
//! named by the low bits of its **instance hash**, so an instance and
//! all of its solved results share a shard. The full index is
//! rebuilt by scanning the segments at [`Store::open`] — there is no
//! separate index file to keep consistent, which is what makes the
//! crash story simple:
//!
//! * appends are a single `write_all` followed by (configurable)
//!   `fsync`; a crash mid-append leaves a **torn tail** that the next
//!   open truncates away ([`crate::segment::scan_segment`]);
//! * payload corruption (checksum mismatch) drops only the damaged
//!   record from the index;
//! * a key appearing twice resolves **last wins**;
//! * [`Store::gc`] rewrites each shard with only its live records via
//!   temp-file + `fsync` + atomic `rename`, reclaiming superseded and
//!   corrupt space;
//! * [`Store::verify`] re-scans every segment from disk and reports.
//!
//! The scan at open verifies every record once. [`Store::open_visit`]
//! hands each live record, borrowed from the shard bytes it was just
//! read from, to a caller that loads records at boot (the server's warm
//! start), so nothing is read, checksummed or copied twice.

use crate::codec;
use crate::segment::{
    read_framed, scan_segment, segment_header, Record, RecordRef, ResultKey, SEG_HEADER_LEN,
};
use mmlp_instance::hash::{hash_hex, instance_hash};
use mmlp_instance::Instance;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of shard segment files per store directory.
pub const N_SHARDS: usize = 16;

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// `fsync` after every append (durability) — disable only for
    /// bulk loads whose source of truth is elsewhere.
    pub fsync: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { fsync: true }
    }
}

/// What one [`Store::open`] found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Live instance records indexed.
    pub instances: usize,
    /// Live result records indexed.
    pub results: usize,
    /// Records superseded by a later record for the same key.
    pub superseded: usize,
    /// Records dropped for payload corruption (checksum mismatch).
    pub corrupt: usize,
    /// Torn-tail bytes truncated away across all shards.
    pub torn_bytes: u64,
}

impl OpenReport {
    /// One-line `key=value` summary — the body the serve layer writes
    /// into the observability event journal at mount time.
    pub fn summary_line(&self) -> String {
        format!(
            "store open: instances={} results={} superseded={} corrupt={} torn_bytes={}",
            self.instances, self.results, self.superseded, self.corrupt, self.torn_bytes
        )
    }
}

/// What one [`Store::gc`] reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live records rewritten into the compacted segments.
    pub records_kept: usize,
    /// Bytes reclaimed across all shards.
    pub bytes_reclaimed: u64,
}

/// Result of a full checksum sweep ([`Store::verify`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segment files swept.
    pub segments: usize,
    /// Records whose checksums verified.
    pub records: usize,
    /// Records that are current for their key.
    pub live: usize,
    /// Records shadowed by a later record for the same key.
    pub superseded: usize,
    /// Records failing their checksum.
    pub corrupt: usize,
    /// Shards with framing damage (torn tail / bad header).
    pub torn_segments: usize,
    /// Total segment bytes on disk.
    pub bytes: u64,
}

impl VerifyReport {
    /// Whether the sweep found no damage at all.
    pub fn clean(&self) -> bool {
        self.corrupt == 0 && self.torn_segments == 0
    }

    /// Renders the report as `key value` lines (the shape CI uploads).
    pub fn render(&self) -> String {
        format!(
            "segments {}\nrecords {}\nlive {}\nsuperseded {}\ncorrupt {}\ntorn_segments {}\nbytes {}\nclean {}\n",
            self.segments,
            self.records,
            self.live,
            self.superseded,
            self.corrupt,
            self.torn_segments,
            self.bytes,
            self.clean()
        )
    }

    /// One-line `key=value` summary for the observability event
    /// journal (`maxmin-lp store verify --journal`).
    pub fn summary_line(&self) -> String {
        format!(
            "store verify: segments={} records={} live={} corrupt={} torn_segments={} clean={}",
            self.segments,
            self.records,
            self.live,
            self.corrupt,
            self.torn_segments,
            self.clean()
        )
    }
}

/// Index key: either an instance or a result record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Key {
    Instance(u64),
    Result(ResultKey),
}

impl Key {
    fn of(record: RecordRef<'_>) -> (Key, u64) {
        match record {
            RecordRef::Instance { hash, .. } => (Key::Instance(hash), hash),
            RecordRef::Result { key, .. } => (Key::Result(key), key.instance),
        }
    }
}

/// Where a live record lives on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    shard: u8,
    offset: u64,
    len: u32,
}

struct Shard {
    file: File,
    len: u64,
}

struct Inner {
    shards: Vec<Shard>,
    index: HashMap<Key, Loc>,
}

/// A persistent content-addressed store, safe to share across threads.
pub struct Store {
    dir: PathBuf,
    fsync: bool,
    inner: Mutex<Inner>,
    on_append: Option<Box<dyn Fn(Duration) + Send + Sync>>,
}

/// The shard a given instance hash belongs to.
pub fn shard_of(instance_hash: u64) -> u8 {
    (instance_hash & (N_SHARDS as u64 - 1)) as u8
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.seg"))
}

fn io_err(kind: std::io::ErrorKind, msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(kind, msg.into())
}

/// The record `framed` (read from `loc`) holds, verified in place.
fn verified(framed: &[u8], loc: Loc) -> std::io::Result<RecordRef<'_>> {
    read_framed(framed).ok_or_else(|| {
        io_err(
            std::io::ErrorKind::InvalidData,
            format!(
                "record at shard {} offset {} failed verification on read",
                loc.shard, loc.offset
            ),
        )
    })
}

impl Store {
    /// Opens (or creates) a store with default configuration.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<(Store, OpenReport)> {
        Store::open_with(dir, StoreConfig::default())
    }

    /// Opens (or creates) the store at `dir`: scans every shard,
    /// truncates torn tails, drops corrupt records, and rebuilds the
    /// in-memory index (last record per key wins).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
    ) -> std::io::Result<(Store, OpenReport)> {
        Store::open_visit(dir, cfg, |_| {})
    }

    /// [`Store::open_with`], handing each live record to `visit` as the
    /// scan finds it, borrowed from the shard bytes it was just read and
    /// verified from: each shard's live records once that shard's scan
    /// has settled which they are.
    pub fn open_visit(
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
        mut visit: impl FnMut(RecordRef<'_>),
    ) -> std::io::Result<(Store, OpenReport)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut shards = Vec::with_capacity(N_SHARDS);
        let mut index: HashMap<Key, Loc> = HashMap::new();
        let mut report = OpenReport::default();
        let mut buf = Vec::new();

        for s in 0..N_SHARDS {
            let path = shard_path(&dir, s);
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(&path)?;
            buf.clear();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut buf)?;

            let mut len = buf.len() as u64;
            if buf.is_empty() {
                // Fresh shard: write the header now so every later
                // append is a pure record write.
                file.write_all(&segment_header(s as u16))?;
                if cfg.fsync {
                    file.sync_data()?;
                }
                len = SEG_HEADER_LEN as u64;
            } else {
                let (records, scan) = scan_segment(&buf);
                if let Some(torn_at) = scan.torn_at {
                    // Repair: drop the unusable tail. A damaged segment
                    // header (torn_at == 0) loses the whole shard; the
                    // header is rewritten so the shard stays usable.
                    report.torn_bytes += len - torn_at;
                    file.set_len(torn_at)?;
                    len = torn_at;
                    if len < SEG_HEADER_LEN as u64 {
                        file.set_len(0)?;
                        file.write_all(&segment_header(s as u16))?;
                        len = SEG_HEADER_LEN as u64;
                    }
                    if cfg.fsync {
                        file.sync_data()?;
                    }
                }
                report.corrupt += scan.corrupt_at.len();
                // Scanned in file order, a record supersedes its key's
                // earlier one. A key's records all sit in its hash's
                // shard, so what this shard leaves live stays live.
                let mut superseded = vec![false; records.len()];
                for r in &records {
                    let loc = Loc {
                        shard: s as u8,
                        offset: r.offset,
                        len: r.len,
                    };
                    let Some(old) = index.insert(Key::of(r.record).0, loc) else {
                        continue;
                    };
                    report.superseded += 1;
                    if usize::from(old.shard) == s {
                        if let Ok(i) = records.binary_search_by_key(&old.offset, |r| r.offset) {
                            superseded[i] = true;
                        }
                    }
                }
                for (r, _) in records.iter().zip(&superseded).filter(|(_, &dead)| !dead) {
                    visit(r.record);
                }
            }
            shards.push(Shard { file, len });
        }

        for key in index.keys() {
            match key {
                Key::Instance(_) => report.instances += 1,
                Key::Result(_) => report.results += 1,
            }
        }
        Ok((
            Store {
                dir,
                fsync: cfg.fsync,
                inner: Mutex::new(Inner { shards, index }),
                on_append: None,
            },
            report,
        ))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `(instances, results)` currently live in the index.
    pub fn counts(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("store lock");
        let mut n = (0, 0);
        for key in inner.index.keys() {
            match key {
                Key::Instance(_) => n.0 += 1,
                Key::Result(_) => n.1 += 1,
            }
        }
        n
    }

    /// Content hashes of all live instance records, ascending.
    pub fn instance_hashes(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("store lock");
        let mut v: Vec<u64> = inner
            .index
            .keys()
            .filter_map(|k| match k {
                Key::Instance(h) => Some(*h),
                Key::Result(_) => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether a live instance record is indexed under `hash`: one
    /// index probe, no I/O.
    pub fn has_instance(&self, hash: u64) -> bool {
        let inner = self.inner.lock().expect("store lock");
        inner.index.contains_key(&Key::Instance(hash))
    }

    /// Hands each live record to `visit`, borrowed from one sequential
    /// read of its shard file, verified: for a caller that loads the
    /// records of a store it did not open itself. Appends wait until
    /// the sweep is done.
    pub fn visit_live(&self, mut visit: impl FnMut(RecordRef<'_>)) -> std::io::Result<()> {
        let inner = self.inner.lock().expect("store lock");
        let mut buf = Vec::new();
        for s in 0..N_SHARDS {
            buf.clear();
            File::open(shard_path(&self.dir, s))?.read_to_end(&mut buf)?;
            for r in scan_segment(&buf).0 {
                let loc = Loc {
                    shard: s as u8,
                    offset: r.offset,
                    len: r.len,
                };
                if inner.index.get(&Key::of(r.record).0) == Some(&loc) {
                    visit(r.record);
                }
            }
        }
        Ok(())
    }

    /// Calls `observe` with the duration of every append from now on:
    /// the write and, when configured, its `fsync`.
    pub fn observe_appends(&mut self, observe: impl Fn(Duration) + Send + Sync + 'static) {
        self.on_append = Some(Box::new(observe));
    }

    /// `(key, framed on-disk record length)` of all live result
    /// records, in stable key order — read straight off the index, no
    /// record I/O.
    pub fn result_records(&self) -> Vec<(ResultKey, u32)> {
        let inner = self.inner.lock().expect("store lock");
        let mut v: Vec<(ResultKey, u32)> = inner
            .index
            .iter()
            .filter_map(|(k, loc)| match k {
                Key::Result(r) => Some((*r, loc.len)),
                Key::Instance(_) => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    fn append(&self, inner: &mut Inner, record: &Record) -> std::io::Result<()> {
        let (key, instance_hash) = Key::of(record.into());
        let shard_id = shard_of(instance_hash);
        let framed = record.encode()?;
        let shard = &mut inner.shards[shard_id as usize];
        let offset = shard.len;
        let start = Instant::now();
        shard.file.write_all(&framed)?;
        if self.fsync {
            shard.file.sync_data()?;
        }
        if let Some(observe) = &self.on_append {
            observe(start.elapsed());
        }
        shard.len += framed.len() as u64;
        inner.index.insert(
            key,
            Loc {
                shard: shard_id,
                offset,
                len: framed.len() as u32,
            },
        );
        Ok(())
    }

    /// The framed bytes at `loc`, unverified ([`verified`] checks them
    /// in place).
    fn read_at(inner: &mut Inner, loc: Loc) -> std::io::Result<Vec<u8>> {
        let shard = &mut inner.shards[loc.shard as usize];
        let mut buf = vec![0u8; loc.len as usize];
        shard.file.seek(SeekFrom::Start(loc.offset))?;
        shard.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// The framed bytes of `key`'s live record and where they were. Only
    /// the probe and the read hold the lock; callers verify and decode
    /// after it is released.
    fn read(&self, key: Key) -> std::io::Result<Option<(Vec<u8>, Loc)>> {
        let mut inner = self.inner.lock().expect("store lock");
        let Some(&loc) = inner.index.get(&key) else {
            return Ok(None);
        };
        Store::read_at(&mut inner, loc).map(|framed| Some((framed, loc)))
    }

    /// Persists an instance under its canonical content hash; returns
    /// the hash. A hash already present is not rewritten (contents are
    /// immutable under content addressing).
    pub fn put_instance(&self, inst: &Instance) -> std::io::Result<u64> {
        let hash = instance_hash(inst);
        if !self.has_instance(hash) {
            self.put_instance_blob(hash, &codec::encode_instance(inst))?;
        }
        Ok(hash)
    }

    /// Persists `blob`, the codec record of an instance whose
    /// `instance_hash` is `hash`: a writer that already holds both
    /// appends without hashing or encoding again. A hash already
    /// present is not rewritten.
    pub fn put_instance_blob(&self, hash: u64, blob: &[u8]) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.index.contains_key(&Key::Instance(hash)) {
            return Ok(());
        }
        let record = Record::Instance {
            hash,
            blob: blob.to_vec(),
        };
        self.append(&mut inner, &record)
    }

    /// Fetches and decodes an instance by content hash.
    pub fn get_instance(&self, hash: u64) -> std::io::Result<Option<Instance>> {
        let Some(blob) = self.get_instance_blob(hash)? else {
            return Ok(None);
        };
        codec::decode_instance(&blob).map(Some).map_err(|e| {
            io_err(
                std::io::ErrorKind::InvalidData,
                format!("instance {}: {e}", hash_hex(hash)),
            )
        })
    }

    /// The codec record stored under `hash`, its framing checksum
    /// verified but not decoded.
    pub fn get_instance_blob(&self, hash: u64) -> std::io::Result<Option<Vec<u8>>> {
        let Some((framed, loc)) = self.read(Key::Instance(hash))? else {
            return Ok(None);
        };
        match verified(&framed, loc)? {
            RecordRef::Instance { blob, .. } => Ok(Some(blob.to_vec())),
            RecordRef::Result { .. } => Err(io_err(
                std::io::ErrorKind::InvalidData,
                "index pointed an instance key at a result record",
            )),
        }
    }

    /// Persists a solved-result body under its key. A key already
    /// present is not rewritten (results are deterministic per key).
    pub fn put_result(&self, key: ResultKey, body: &str) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.index.contains_key(&Key::Result(key)) {
            return Ok(());
        }
        let record = Record::Result {
            key,
            body: body.as_bytes().to_vec(),
        };
        self.append(&mut inner, &record)
    }

    /// Fetches a solved-result body by key.
    pub fn get_result(&self, key: &ResultKey) -> std::io::Result<Option<String>> {
        let Some((framed, loc)) = self.read(Key::Result(*key))? else {
            return Ok(None);
        };
        match verified(&framed, loc)? {
            RecordRef::Result { body, .. } => String::from_utf8(body.to_vec())
                .map(Some)
                .map_err(|_| io_err(std::io::ErrorKind::InvalidData, "non-UTF-8 result body")),
            RecordRef::Instance { .. } => Err(io_err(
                std::io::ErrorKind::InvalidData,
                "index pointed a result key at an instance record",
            )),
        }
    }

    /// Rewrites every shard with only its live records (temp file,
    /// `fsync`, atomic rename), dropping superseded and corrupt space.
    pub fn gc(&self) -> std::io::Result<GcReport> {
        let mut inner = self.inner.lock().expect("store lock");
        let mut report = GcReport::default();
        for s in 0..N_SHARDS {
            // Live records of this shard, in current file order.
            let mut live: Vec<(Key, Loc)> = inner
                .index
                .iter()
                .filter(|(_, loc)| loc.shard as usize == s)
                .map(|(k, l)| (*k, *l))
                .collect();
            live.sort_by_key(|(_, l)| l.offset);

            let old_len = inner.shards[s].len;
            let tmp_path =
                shard_path(&self.dir, s).with_extension(format!("tmp.{}", std::process::id()));
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&segment_header(s as u16))?;
            let mut new_len = SEG_HEADER_LEN as u64;
            let mut moved: Vec<(Key, Loc)> = Vec::with_capacity(live.len());
            for (key, loc) in live {
                // A verified record is copied as framed: nothing to
                // re-encode.
                let framed = Store::read_at(&mut inner, loc)?;
                verified(&framed, loc)?;
                tmp.write_all(&framed)?;
                moved.push((
                    key,
                    Loc {
                        shard: s as u8,
                        offset: new_len,
                        len: framed.len() as u32,
                    },
                ));
                new_len += framed.len() as u64;
            }
            tmp.sync_data()?;
            drop(tmp);
            std::fs::rename(&tmp_path, shard_path(&self.dir, s))?;
            let file = OpenOptions::new()
                .append(true)
                .read(true)
                .open(shard_path(&self.dir, s))?;
            inner.shards[s] = Shard { file, len: new_len };
            report.records_kept += moved.len();
            for (key, loc) in moved {
                inner.index.insert(key, loc);
            }
            report.bytes_reclaimed += old_len.saturating_sub(new_len);
        }
        Ok(report)
    }

    /// Full checksum sweep: re-reads every segment from disk and
    /// verifies every record, without touching the live index or the
    /// files.
    pub fn verify(&self) -> std::io::Result<VerifyReport> {
        // Serialise with writers so offsets and files are stable.
        let _inner = self.inner.lock().expect("store lock");
        let mut report = VerifyReport::default();
        let mut seen_keys: std::collections::HashSet<Key> = std::collections::HashSet::new();
        for s in 0..N_SHARDS {
            let buf = std::fs::read(shard_path(&self.dir, s))?;
            report.segments += 1;
            report.bytes += buf.len() as u64;
            let (records, scan) = scan_segment(&buf);
            if scan.torn_at.is_some() {
                report.torn_segments += 1;
            }
            report.corrupt += scan.corrupt_at.len();
            for r in &records {
                report.records += 1;
                let (key, _) = Key::of(r.record);
                if !seen_keys.insert(key) {
                    report.superseded += 1;
                }
            }
        }
        report.live = seen_keys.len();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{KIND_RESULT, REC_HEADER_LEN};
    use mmlp_instance::textfmt;
    use mmlp_instance::InstanceBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(coef: f64) -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        b.add_constraint(&[(v0, coef), (v1, 1.0)]).unwrap();
        b.add_objective(&[(v0, 1.0)]).unwrap();
        b.add_objective(&[(v1, 1.0)]).unwrap();
        b.build().unwrap()
    }

    fn rkey(instance: u64, op: u8) -> ResultKey {
        ResultKey {
            instance,
            op,
            big_r: 3,
            threads: 1,
        }
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = temp_dir("reopen");
        let inst = sample(0.5);
        let canonical = textfmt::write_instance(&inst);
        let hash;
        {
            let (store, report) = Store::open(&dir).unwrap();
            assert_eq!(report, OpenReport::default());
            hash = store.put_instance(&inst).unwrap();
            store.put_result(rkey(hash, 1), "utility 0.25\n").unwrap();
            assert_eq!(store.counts(), (1, 1));
            // Idempotent: re-putting does not grow the store.
            assert_eq!(store.put_instance(&inst).unwrap(), hash);
            store.put_result(rkey(hash, 1), "utility 0.25\n").unwrap();
            assert_eq!(store.counts(), (1, 1));
        }
        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report.instances, 1);
        assert_eq!(report.results, 1);
        assert_eq!(report.superseded, 0);
        let back = store.get_instance(hash).unwrap().expect("instance");
        assert_eq!(textfmt::write_instance(&back), canonical);
        assert_eq!(
            store.get_result(&rkey(hash, 1)).unwrap().as_deref(),
            Some("utility 0.25\n")
        );
        assert_eq!(store.get_result(&rkey(hash, 2)).unwrap(), None);
        assert!(store.get_instance(hash ^ 1).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_instance_blob_round_trips_as_the_codec_record() {
        let dir = temp_dir("blob");
        let inst = sample(0.5);
        let hash = instance_hash(&inst);
        let blob = codec::encode_instance(&inst);
        {
            let (store, _) = Store::open(&dir).unwrap();
            store.put_instance_blob(hash, &blob).unwrap();
            // A `put_instance` of the same content dedupes onto it.
            assert_eq!(store.put_instance(&inst).unwrap(), hash);
            assert_eq!(store.counts(), (1, 0));
        }
        let (store, _) = Store::open(&dir).unwrap();
        assert_eq!(store.get_instance_blob(hash).unwrap(), Some(blob));
        let back = store.get_instance(hash).unwrap().unwrap();
        assert_eq!(
            textfmt::write_instance(&back),
            textfmt::write_instance(&inst)
        );
        assert_eq!(store.get_instance_blob(hash ^ 1).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_spread_by_hash_low_bits() {
        let dir = temp_dir("shards");
        let (store, _) = Store::open(&dir).unwrap();
        let mut shards_used = std::collections::HashSet::new();
        for i in 0..24 {
            let h = store.put_instance(&sample(0.25 + i as f64)).unwrap();
            shards_used.insert(shard_of(h));
        }
        assert!(shards_used.len() > 1, "hashes spread across shards");
        // Results land in their instance's shard.
        let hashes = store.instance_hashes();
        assert_eq!(hashes.len(), 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let inst = sample(0.5);
        let hash;
        {
            let (store, _) = Store::open(&dir).unwrap();
            hash = store.put_instance(&inst).unwrap();
            store.put_result(rkey(hash, 1), "body\n").unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let path = shard_path(&dir, shard_of(hash) as usize);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[KIND_RESULT, 200, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report.torn_bytes, 8);
        assert_eq!(report.instances, 1);
        assert_eq!(report.results, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The store is fully usable after the repair.
        assert!(store.get_instance(hash).unwrap().is_some());
        assert!(store.verify().unwrap().clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_checksum_drops_only_that_record() {
        let dir = temp_dir("flip");
        let a = sample(0.5);
        let b = sample(0.25);
        let (ha, hb);
        {
            let (store, _) = Store::open(&dir).unwrap();
            ha = store.put_instance(&a).unwrap();
            hb = store.put_instance(&b).unwrap();
        }
        // Flip one payload byte of the first record in a's shard.
        let path = shard_path(&dir, shard_of(ha) as usize);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = SEG_HEADER_LEN + REC_HEADER_LEN + 12;
        bytes[victim] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report.corrupt, 1);
        // Whichever record was damaged is gone; anything in other
        // shards (or later in the same shard) survives.
        let survivors = store.instance_hashes().len();
        assert_eq!(survivors, 1, "{:?}", store.instance_hashes());
        let v = store.verify().unwrap();
        assert_eq!(v.corrupt, 1);
        assert!(!v.clean());
        // gc rewrites only live records: the sweep comes back clean.
        store.gc().unwrap();
        let v = store.verify().unwrap();
        assert!(v.clean(), "{}", v.render());
        assert_eq!(store.instance_hashes().len(), survivors);
        let _ = (ha, hb);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_records_resolve_last_wins() {
        let dir = temp_dir("dup");
        let inst = sample(0.5);
        let hash;
        {
            let (store, _) = Store::open(&dir).unwrap();
            hash = store.put_instance(&inst).unwrap();
        }
        // Hand-append a second record for the same result key: the
        // store API skips duplicates, but a crash between two writers
        // (or a partially-gc'd segment) can leave them on disk.
        let path = shard_path(&dir, shard_of(hash) as usize);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        let old = Record::Result {
            key: rkey(hash, 1),
            body: b"old body\n".to_vec(),
        };
        let new = Record::Result {
            key: rkey(hash, 1),
            body: b"new body\n".to_vec(),
        };
        f.write_all(&old.encode().unwrap()).unwrap();
        f.write_all(&new.encode().unwrap()).unwrap();
        drop(f);

        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report.superseded, 1);
        assert_eq!(report.results, 1);
        assert_eq!(
            store.get_result(&rkey(hash, 1)).unwrap().as_deref(),
            Some("new body\n"),
            "the later record wins"
        );
        // gc drops the shadowed record; last-wins answer is unchanged.
        let gc = store.gc().unwrap();
        assert!(gc.bytes_reclaimed > 0);
        assert_eq!(
            store.get_result(&rkey(hash, 1)).unwrap().as_deref(),
            Some("new body\n")
        );
        assert_eq!(store.verify().unwrap().superseded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_preserves_every_live_record() {
        let dir = temp_dir("gc");
        let (store, _) = Store::open(&dir).unwrap();
        let mut hashes = Vec::new();
        for i in 0..12 {
            let h = store.put_instance(&sample(1.0 + i as f64)).unwrap();
            store
                .put_result(rkey(h, 1), &format!("body {i}\n"))
                .unwrap();
            hashes.push(h);
        }
        let before: Vec<String> = hashes
            .iter()
            .map(|&h| textfmt::write_instance(&store.get_instance(h).unwrap().unwrap()))
            .collect();
        let gc = store.gc().unwrap();
        assert_eq!(gc.records_kept, 24);
        for (i, &h) in hashes.iter().enumerate() {
            let inst = store
                .get_instance(h)
                .unwrap()
                .expect("instance survives gc");
            assert_eq!(textfmt::write_instance(&inst), before[i]);
            assert_eq!(
                store.get_result(&rkey(h, 1)).unwrap().as_deref(),
                Some(format!("body {i}\n").as_str())
            );
        }
        // And the compacted store reopens identically.
        drop(store);
        let (store, report) = Store::open(&dir).unwrap();
        assert_eq!(report.instances, 12);
        assert_eq!(report.results, 12);
        assert_eq!(report.superseded + report.corrupt, 0);
        assert!(store.verify().unwrap().clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let dir = temp_dir("concurrent");
        let (store, _) = Store::open_with(&dir, StoreConfig { fsync: false }).unwrap();
        let store = std::sync::Arc::new(store);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..16 {
                        let inst = sample(1.0 + (t * 16 + i) as f64);
                        let h = store.put_instance(&inst).unwrap();
                        store.put_result(rkey(h, 1), "b\n").unwrap();
                        assert!(store.get_instance(h).unwrap().is_some());
                    }
                });
            }
        });
        assert_eq!(store.counts(), (64, 64));
        assert!(store.verify().unwrap().clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_visits_each_live_record_once() {
        let dir = temp_dir("visit");
        let (ha, hb);
        {
            let (store, _) = Store::open(&dir).unwrap();
            ha = store.put_instance(&sample(0.5)).unwrap();
            hb = store.put_instance(&sample(0.25)).unwrap();
            store.put_result(rkey(ha, 1), "a\n").unwrap();
        }
        // Two bodies for one key: only the later is live.
        let path = shard_path(&dir, shard_of(hb) as usize);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        let body = |text: &str| Record::Result {
            key: rkey(hb, 1),
            body: text.as_bytes().to_vec(),
        };
        for text in ["old\n", "new\n"] {
            f.write_all(&body(text).encode().unwrap()).unwrap();
        }
        drop(f);

        let mut seen = Vec::new();
        let (store, report) =
            Store::open_visit(&dir, StoreConfig::default(), |r| seen.push(r.to_record())).unwrap();
        assert_eq!(report.superseded, 1);
        assert_eq!(seen.len(), report.instances + report.results);
        assert!(seen.contains(&body("new\n")));
        assert!(!seen.contains(&body("old\n")));
        // A sweep of the open store hands over the same records.
        let mut again = Vec::new();
        store.visit_live(|r| again.push(r.to_record())).unwrap();
        assert_eq!(again, seen);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_append_is_observed_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let dir = temp_dir("observe");
        let (mut store, _) = Store::open_with(&dir, StoreConfig { fsync: false }).unwrap();
        let appends = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&appends);
        store.observe_appends(move |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let h = store.put_instance(&sample(0.5)).unwrap();
        store.put_instance(&sample(0.5)).unwrap(); // deduplicated
        store.put_result(rkey(h, 1), "b\n").unwrap();
        assert_eq!(appends.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
