//! Crash-safe, append-only event journal.
//!
//! A journal directory holds numbered files (`journal.000000.mmlpj`,
//! `journal.000001.mmlpj`, …), each a 16-byte header followed by
//! length-framed, FNV-1a-checksummed binary records:
//!
//! ```text
//! file   := magic "MMLPJRN1" · version u16 LE · reserved u16 · reserved u32
//! record := kind u8 · payload_len u32 LE · fnv1a64(payload) u64 LE · payload
//! payload:= trace_id u64 LE · UTF-8 text
//! ```
//!
//! Recovery reuses `mmlp-store`'s torn-tail truncation discipline
//! (re-implemented here — this crate is dependency-free by design):
//! **framing damage** (short header, unknown kind, impossible length,
//! payload running past EOF) marks everything from that offset as a
//! torn tail, which [`Journal::open`] physically truncates so appends
//! continue on a clean boundary; a **checksum or UTF-8 mismatch** with
//! intact framing skips just that record and keeps scanning. A kill
//! -9 mid-append therefore loses at most the record being written.
//!
//! Writes go through a dedicated drainer thread fed by a bounded
//! queue: the hot path pays one `try_send` (a failed send is counted,
//! never blocked on), the drainer batches, appends, flushes, rotates
//! files past the byte budget, and prunes the oldest files beyond
//! `max_files`.

use std::collections::VecDeque;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// Journal file magic (first 8 bytes).
pub const JOURNAL_MAGIC: [u8; 8] = *b"MMLPJRN1";
/// Format version stamped in every file header.
pub const JOURNAL_VERSION: u16 = 1;
/// File header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Record header length in bytes (kind + length + checksum).
pub const REC_HEADER_LEN: usize = 13;
/// Payloads above this are framing damage, not records.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Record kind: a finished request span tree ([`crate::span::SpanTree::to_text`]).
pub const EV_SPAN: u8 = 1;
/// Record kind: a cache/LRU eviction notice.
pub const EV_CACHE: u8 = 2;
/// Record kind: a BUSY (queue full) rejection.
pub const EV_BUSY: u8 = 3;
/// Record kind: a delta lineage resolution (mode, dirty-ball size).
pub const EV_DELTA: u8 = 4;
/// Record kind: a store open/gc/verify outcome.
pub const EV_STORE: u8 = 5;
/// Record kind: a lab job lifecycle event.
pub const EV_LAB: u8 = 6;

const KIND_MAX: u8 = EV_LAB;

/// Human-readable name of a record kind (for `obs journal` output).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        EV_SPAN => "span",
        EV_CACHE => "cache",
        EV_BUSY => "busy",
        EV_DELTA => "delta",
        EV_STORE => "store",
        EV_LAB => "lab",
        _ => "unknown",
    }
}

/// One journal event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// One of the `EV_*` kinds.
    pub kind: u8,
    /// Associated trace id, or 0 when the event is not request-scoped.
    pub trace_id: u64,
    /// Kind-specific UTF-8 body (span trees use the span text format).
    pub text: String,
}

/// FNV-1a 64-bit over raw bytes (the journal's checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + rec.text.len());
    payload.extend_from_slice(&rec.trace_id.to_le_bytes());
    payload.extend_from_slice(rec.text.as_bytes());
    let mut out = Vec::with_capacity(REC_HEADER_LEN + payload.len());
    out.push(rec.kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn file_header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&JOURNAL_MAGIC);
    h[8..10].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    h
}

/// What a scan of one journal file found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Offset of framing damage (torn tail), if any: everything from
    /// here on is unreadable and safe to truncate.
    pub torn_at: Option<u64>,
    /// Offsets of records skipped for checksum/decoding damage.
    pub corrupt_at: Vec<u64>,
}

/// Scans one journal file image: records plus damage report.
///
/// Bad file header ⇒ the whole file is a torn tail at offset 0.
pub fn scan_file(bytes: &[u8]) -> (Vec<JournalRecord>, ScanReport) {
    let mut records = Vec::new();
    let mut report = ScanReport::default();
    if bytes.len() < HEADER_LEN
        || bytes[..8] != JOURNAL_MAGIC
        || u16::from_le_bytes([bytes[8], bytes[9]]) != JOURNAL_VERSION
    {
        report.torn_at = Some(0);
        return (records, report);
    }
    let mut off = HEADER_LEN;
    while off < bytes.len() {
        if bytes.len() - off < REC_HEADER_LEN {
            report.torn_at = Some(off as u64);
            return (records, report);
        }
        let kind = bytes[off];
        let len = u32::from_le_bytes(bytes[off + 1..off + 5].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[off + 5..off + 13].try_into().unwrap());
        if kind == 0 || kind > KIND_MAX || len > MAX_PAYLOAD || (len as usize) < 8 {
            report.torn_at = Some(off as u64);
            return (records, report);
        }
        let start = off + REC_HEADER_LEN;
        let end = start + len as usize;
        if end > bytes.len() {
            report.torn_at = Some(off as u64);
            return (records, report);
        }
        let payload = &bytes[start..end];
        if fnv1a64(payload) != sum {
            report.corrupt_at.push(off as u64);
            off = end;
            continue;
        }
        let trace_id = u64::from_le_bytes(payload[..8].try_into().unwrap());
        match std::str::from_utf8(&payload[8..]) {
            Ok(text) => records.push(JournalRecord {
                kind,
                trace_id,
                text: text.to_string(),
            }),
            Err(_) => report.corrupt_at.push(off as u64),
        }
        off = end;
    }
    (records, report)
}

/// Writer-side configuration.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the journal files (created if missing).
    pub dir: PathBuf,
    /// Rotate the active file once it exceeds this many bytes.
    pub file_budget: u64,
    /// Keep at most this many files; older ones are deleted.
    pub max_files: usize,
    /// Bounded queue depth between `emit` and the drainer.
    pub queue_cap: usize,
}

impl JournalConfig {
    /// Defaults: 4 MiB per file, 4 files, 1024-deep queue.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            file_budget: 4 << 20,
            max_files: 4,
            queue_cap: 1024,
        }
    }
}

/// What [`Journal::open`] found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalOpenReport {
    /// Intact records found across existing files.
    pub recovered: usize,
    /// Torn-tail bytes truncated off the active file.
    pub torn_truncated: u64,
    /// Records skipped for checksum damage during recovery.
    pub corrupt: usize,
    /// Journal files present after recovery.
    pub files: usize,
    /// The largest trace id among the recovered records (0 when none).
    pub max_trace_id: u64,
}

enum Msg {
    Rec(JournalRecord),
    Flush(SyncSender<()>),
}

/// The writer handle: cheap to clone via `Arc`, safe to `emit` from
/// any thread. Dropping the last handle joins the drainer (flushing
/// everything queued).
#[derive(Debug)]
pub struct Journal {
    tx: SyncSender<Msg>,
    handle: Option<std::thread::JoinHandle<()>>,
    appended: Arc<AtomicU64>,
    dropped: AtomicU64,
}

fn file_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal.{seq:06}.mmlpj"))
}

/// Lists a directory's journal files as (seq, path), ascending.
fn list_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(mid) = name
            .strip_prefix("journal.")
            .and_then(|r| r.strip_suffix(".mmlpj"))
        {
            if let Ok(seq) = mid.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

impl Journal {
    /// Opens (or creates) the journal in `cfg.dir`, recovering the
    /// active file: a torn tail is truncated in place so appends
    /// resume on a record boundary.
    pub fn open(cfg: JournalConfig) -> std::io::Result<(Journal, JournalOpenReport)> {
        fs::create_dir_all(&cfg.dir)?;
        let files = list_files(&cfg.dir)?;
        let mut report = JournalOpenReport {
            files: files.len().max(1),
            ..JournalOpenReport::default()
        };
        let seq = files.last().map(|(s, _)| *s).unwrap_or(0);
        // Recover every existing file for the report; physically
        // truncate only the active (last) one — older files are
        // immutable history and their damage is reported, not edited.
        for (i, (_, path)) in files.iter().enumerate() {
            let bytes = fs::read(path)?;
            let (recs, scan) = scan_file(&bytes);
            report.recovered += recs.len();
            let file_max = recs.iter().map(|r| r.trace_id).max().unwrap_or(0);
            report.max_trace_id = report.max_trace_id.max(file_max);
            report.corrupt += scan.corrupt_at.len();
            if i == files.len() - 1 {
                if let Some(torn) = scan.torn_at {
                    report.torn_truncated = bytes.len() as u64 - torn;
                    let f = fs::OpenOptions::new().write(true).open(path)?;
                    f.set_len(torn)?;
                    if torn < HEADER_LEN as u64 {
                        // Header itself was torn: restamp it.
                        let mut f = fs::OpenOptions::new().write(true).open(path)?;
                        f.seek(SeekFrom::Start(0))?;
                        f.write_all(&file_header())?;
                    }
                }
            }
        }
        let active = file_path(&cfg.dir, seq);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active)?;
        if file.metadata()?.len() < HEADER_LEN as u64 {
            file.set_len(0)?;
            file.write_all(&file_header())?;
            file.flush()?;
        }

        let (tx, rx) = sync_channel::<Msg>(cfg.queue_cap.max(1));
        let appended = Arc::new(AtomicU64::new(0));
        let appended_w = Arc::clone(&appended);
        let handle = std::thread::Builder::new()
            .name("mmlp-journal".into())
            .spawn(move || drainer(cfg, file, seq, rx, appended_w))
            .expect("spawn journal drainer");
        Ok((
            Journal {
                tx,
                handle: Some(handle),
                appended,
                dropped: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// Queues a record for appending. Never blocks: when the queue is
    /// full the record is dropped and counted in [`Self::dropped`].
    pub fn emit(&self, rec: JournalRecord) {
        match self.tx.try_send(Msg::Rec(rec)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Blocks until everything queued before this call is on disk.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.tx.send(Msg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Records appended to disk so far.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Records dropped on a full queue so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Closing the channel makes the drainer finish its backlog
        // and exit; join so the final flush is visible to the caller.
        let (tx, _) = sync_channel(1);
        let old = std::mem::replace(&mut self.tx, tx);
        drop(old);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn drainer(
    cfg: JournalConfig,
    mut file: fs::File,
    mut seq: u64,
    rx: Receiver<Msg>,
    appended: Arc<AtomicU64>,
) {
    let mut size = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut batch: VecDeque<Msg> = VecDeque::new();
    loop {
        // Block for the first message, then drain whatever else is
        // queued so one write/flush covers the batch.
        match rx.recv() {
            Ok(m) => batch.push_back(m),
            Err(_) => return, // all writer handles dropped; backlog is empty
        }
        while let Ok(m) = rx.try_recv() {
            batch.push_back(m);
        }
        let mut wrote = 0u64;
        let mut buf = Vec::new();
        let mut flushes: Vec<SyncSender<()>> = Vec::new();
        while let Some(m) = batch.pop_front() {
            match m {
                Msg::Rec(rec) => {
                    buf.extend_from_slice(&encode_record(&rec));
                    wrote += 1;
                }
                Msg::Flush(ack) => flushes.push(ack),
            }
        }
        if !buf.is_empty() && file.write_all(&buf).and_then(|()| file.flush()).is_ok() {
            size += buf.len() as u64;
            appended.fetch_add(wrote, Ordering::Relaxed);
        }
        if size >= cfg.file_budget {
            seq += 1;
            if let Ok(next) = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(file_path(&cfg.dir, seq))
            {
                file = next;
                let _ = file.write_all(&file_header());
                let _ = file.flush();
                size = HEADER_LEN as u64;
                if let Ok(files) = list_files(&cfg.dir) {
                    let keep = cfg.max_files.max(1);
                    if files.len() > keep {
                        for (_, path) in &files[..files.len() - keep] {
                            let _ = fs::remove_file(path);
                        }
                    }
                }
            }
        }
        for ack in flushes {
            let _ = ack.try_send(());
        }
    }
}

/// What reading a whole journal directory found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// Files scanned, ascending sequence order.
    pub files: usize,
    /// Files ending in a torn tail.
    pub torn_files: usize,
    /// Records skipped for checksum damage.
    pub corrupt: usize,
}

/// Reads every record from a journal directory, oldest file first,
/// applying the same per-file damage discipline as recovery (torn
/// tail stops that file; checksum damage skips the record).
pub fn read_journal_dir(dir: &Path) -> std::io::Result<(Vec<JournalRecord>, ReadReport)> {
    let mut records = Vec::new();
    let mut report = ReadReport::default();
    for (_, path) in list_files(dir)? {
        let mut bytes = Vec::new();
        fs::File::open(&path)?.read_to_end(&mut bytes)?;
        let (recs, scan) = scan_file(&bytes);
        records.extend(recs);
        report.files += 1;
        report.torn_files += scan.torn_at.is_some() as usize;
        report.corrupt += scan.corrupt_at.len();
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mmlp-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(kind: u8, trace_id: u64, text: &str) -> JournalRecord {
        JournalRecord {
            kind,
            trace_id,
            text: text.into(),
        }
    }

    #[test]
    fn encode_scan_round_trips() {
        let mut bytes = file_header().to_vec();
        let recs = vec![
            rec(EV_SPAN, 7, "mmlpspan 1\ntrace 0007 10 x\n"),
            rec(EV_BUSY, 0, "queue full (64 deep)"),
            rec(EV_DELTA, 9, "mode=warm dirty_x=3"),
        ];
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        let (got, report) = scan_file(&bytes);
        assert_eq!(got, recs);
        assert_eq!(report, ScanReport::default());
    }

    #[test]
    fn framing_damage_is_a_torn_tail() {
        let mut bytes = file_header().to_vec();
        bytes.extend_from_slice(&encode_record(&rec(EV_SPAN, 1, "a")));
        let good_len = bytes.len();
        // A half-written header.
        bytes.extend_from_slice(&[EV_BUSY, 3, 0]);
        let (got, report) = scan_file(&bytes);
        assert_eq!(got.len(), 1);
        assert_eq!(report.torn_at, Some(good_len as u64));

        // An impossible kind truncates from its offset too.
        let mut bytes2 = bytes[..good_len].to_vec();
        bytes2.push(99);
        bytes2.extend_from_slice(&[0u8; 12]);
        let (_, report2) = scan_file(&bytes2);
        assert_eq!(report2.torn_at, Some(good_len as u64));
    }

    #[test]
    fn checksum_damage_skips_only_that_record() {
        let mut bytes = file_header().to_vec();
        bytes.extend_from_slice(&encode_record(&rec(EV_SPAN, 1, "first")));
        let corrupt_at = bytes.len();
        bytes.extend_from_slice(&encode_record(&rec(EV_CACHE, 2, "second")));
        bytes.extend_from_slice(&encode_record(&rec(EV_STORE, 3, "third")));
        // Flip a payload byte of the middle record.
        bytes[corrupt_at + REC_HEADER_LEN + 8] ^= 0xff;
        let (got, report) = scan_file(&bytes);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].text, "first");
        assert_eq!(got[1].text, "third");
        assert_eq!(report.corrupt_at, vec![corrupt_at as u64]);
        assert_eq!(report.torn_at, None);
    }

    #[test]
    fn bad_file_header_is_torn_at_zero() {
        let (got, report) = scan_file(b"not a journal");
        assert!(got.is_empty());
        assert_eq!(report.torn_at, Some(0));
    }

    #[test]
    fn open_emit_flush_read_round_trips() {
        let dir = temp_dir("rt");
        let (j, open) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!((open.recovered, open.max_trace_id), (0, 0));
        for i in 0..50u64 {
            j.emit(rec(EV_SPAN, i + 1, &format!("event {i}")));
        }
        j.flush();
        assert_eq!(j.appended(), 50);
        assert_eq!(j.dropped(), 0);
        drop(j);
        let (recs, report) = read_journal_dir(&dir).unwrap();
        assert_eq!(recs.len(), 50);
        assert_eq!(recs[49].text, "event 49");
        assert_eq!(report.torn_files, 0);
        assert_eq!(report.corrupt, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_truncates_the_torn_tail_and_appends_cleanly() {
        let dir = temp_dir("torn");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        for i in 0..10u64 {
            j.emit(rec(EV_SPAN, i + 1, "survivor"));
        }
        j.flush();
        drop(j);
        // Simulate a kill -9 mid-append: a partial record at the tail.
        let path = file_path(&dir, 0);
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[EV_SPAN, 200, 1, 0]).unwrap();
        drop(f);

        let (j2, open) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(open.recovered, 10);
        assert_eq!(open.torn_truncated, 4);
        assert_eq!(open.max_trace_id, 10, "the survivors' largest id");
        j2.emit(rec(EV_BUSY, 0, "after recovery"));
        j2.flush();
        drop(j2);

        let (recs, report) = read_journal_dir(&dir).unwrap();
        assert_eq!(recs.len(), 11, "10 survivors + 1 post-recovery append");
        assert_eq!(recs[10].text, "after recovery");
        assert_eq!(report.torn_files, 0, "the tail was repaired in place");
        assert_eq!(report.corrupt, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_respects_budget_and_prunes_old_files() {
        let dir = temp_dir("rot");
        let cfg = JournalConfig {
            file_budget: 256,
            max_files: 2,
            ..JournalConfig::new(&dir)
        };
        let (j, _) = Journal::open(cfg).unwrap();
        let big = "x".repeat(100);
        for i in 0..40u64 {
            j.emit(rec(EV_LAB, i, &big));
            // Flush per record so each lands before the rotation check.
            j.flush();
        }
        drop(j);
        let files = list_files(&dir).unwrap();
        assert!(files.len() <= 2, "pruned to max_files: {files:?}");
        assert!(files[0].0 > 0, "oldest files were deleted");
        let (recs, _) = read_journal_dir(&dir).unwrap();
        assert!(!recs.is_empty() && recs.len() < 40);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_never_blocks_on_a_full_queue() {
        let dir = temp_dir("full");
        let cfg = JournalConfig {
            queue_cap: 4,
            ..JournalConfig::new(&dir)
        };
        let (j, _) = Journal::open(cfg).unwrap();
        for i in 0..10_000u64 {
            j.emit(rec(EV_SPAN, i + 1, "burst"));
        }
        j.flush();
        let written = j.appended();
        let dropped = j.dropped();
        assert_eq!(
            written + dropped,
            10_000,
            "every emit either lands or is counted as dropped"
        );
        drop(j);
        fs::remove_dir_all(&dir).ok();
    }
}
