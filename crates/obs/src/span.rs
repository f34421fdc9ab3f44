//! Request-scoped span trees.
//!
//! One request = one [`SpanTree`]: a process-unique `trace_id`, a
//! human-readable label (the command line that produced it), a total
//! wall time, and a flat vector of [`Span`]s linked by parent ids.
//! The serve layer records spans through a [`SpanRecorder`] as the
//! request moves queue → cache → execute (solver phases) → store, then
//! `finish()`es the tree into a bounded [`SpanRing`] and the event
//! journal. Trace ids travel over the wire in the optional `TRACE
//! <hex>` protocol line (`specs/PROTOCOL.md`), so a loadgen-minted id
//! can be found again in the journal with `maxmin-lp obs trace <id>`.
//! The ring answers "the N slowest recent traces" ([`SpanRing::slowest`])
//! for the server's shutdown summary and the offline `maxmin-lp obs`
//! report, both drawn with [`render_span_tree`].
//!
//! The text serialisation ([`SpanTree::to_text`] /
//! [`SpanTree::parse_text`]) is what the journal stores: versioned,
//! line-oriented, and parseable without this process's state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel parent id meaning "child of the request root".
pub const ROOT_SPAN: u32 = 0;

/// First line of the span-tree text serialisation (format version 1).
pub const SPAN_TEXT_MAGIC: &str = "mmlpspan 1";

/// One timed interval inside a request, positioned relative to the
/// request's start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Id unique within the tree (1-based; [`ROOT_SPAN`] is the root).
    pub id: u32,
    /// Parent span id, or [`ROOT_SPAN`] for top-level spans.
    pub parent: u32,
    /// Interval name (`queue`, `execute`, `gather`, `store`, …).
    pub name: String,
    /// Nanoseconds from request start to interval start.
    pub start_ns: u64,
    /// Interval length in nanoseconds.
    pub dur_ns: u64,
}

/// A finished request trace: the root interval plus its spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanTree {
    /// Trace id (nonzero; `0` means "untraced" everywhere else).
    pub trace_id: u64,
    /// Request label, e.g. the wire command line.
    pub label: String,
    /// Whole-request wall time in nanoseconds.
    pub total_ns: u64,
    /// All recorded spans, in recording order.
    pub spans: Vec<Span>,
}

/// The id [`next_trace_id`] hands out next.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Hands out process-unique trace ids, starting at 1 (0 reads as
/// "untraced", so it is skipped should the counter ever wrap).
pub fn next_trace_id() -> u64 {
    match NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed) {
        0 => NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        id => id,
    }
}

/// Moves [`next_trace_id`] past `id`: ids minted from now on are all
/// larger. A server calls it with the largest id its journal holds, so
/// a new life on the same journal never reuses an earlier life's ids.
pub fn mint_trace_ids_after(id: u64) {
    NEXT_TRACE_ID.fetch_max(id.saturating_add(1), Ordering::Relaxed);
}

/// Formats a trace id the way the wire protocol and CLI expect it:
/// 16 lowercase hex digits, zero-padded.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a trace id as produced by [`format_trace_id`] (1–16 hex
/// digits, any case). Returns `None` for empty, overlong, non-hex
/// (a sign included), or zero input — zero is the "untraced" sentinel
/// and never a valid id.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let id = u64::from_str_radix(s, 16).ok()?;
    (id != 0).then_some(id)
}

impl SpanTree {
    /// Serialises the tree to the versioned line format stored in the
    /// event journal:
    ///
    /// ```text
    /// mmlpspan 1
    /// trace <16-hex> <total_ns> <label…>
    /// s <id> <parent> <start_ns> <dur_ns> <name…>
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        out.push_str(SPAN_TEXT_MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "trace {} {} {}\n",
            format_trace_id(self.trace_id),
            self.total_ns,
            self.label
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "s {} {} {} {} {}\n",
                s.id, s.parent, s.start_ns, s.dur_ns, s.name
            ));
        }
        out
    }

    /// Parses the [`Self::to_text`] format. Returns a description of
    /// the first malformed line on failure.
    pub fn parse_text(text: &str) -> Result<SpanTree, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l == SPAN_TEXT_MAGIC => {}
            other => return Err(format!("bad span magic: {other:?}")),
        }
        let header = lines.next().ok_or("missing trace header")?;
        let rest = header
            .strip_prefix("trace ")
            .ok_or_else(|| format!("bad trace header: {header}"))?;
        let mut it = rest.splitn(3, ' ');
        let trace_id = it
            .next()
            .and_then(parse_trace_id)
            .ok_or_else(|| format!("bad trace id in: {header}"))?;
        let total_ns: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad total_ns in: {header}"))?;
        let label = it.next().unwrap_or("").to_string();
        let mut spans = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let body = line
                .strip_prefix("s ")
                .ok_or_else(|| format!("bad span line: {line}"))?;
            let mut f = body.splitn(5, ' ');
            let mut num = |what: &str| -> Result<u64, String> {
                f.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("bad {what} in span line: {line}"))
            };
            let id = num("id")? as u32;
            let parent = num("parent")? as u32;
            let start_ns = num("start_ns")?;
            let dur_ns = num("dur_ns")?;
            let name = f.next().unwrap_or("").to_string();
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                dur_ns,
            });
        }
        Ok(SpanTree {
            trace_id,
            label,
            total_ns,
            spans,
        })
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Renders a span tree as an indented timeline, children under their
/// parents, each line showing share-of-total and wall time. Under the
/// root, and under every span with children, an `(other)` line shows
/// the time the children leave unexplained, when there is any.
pub fn render_span_tree(tree: &SpanTree) -> String {
    let mut out = format!(
        "trace {}  {}  total {}\n",
        format_trace_id(tree.trace_id),
        tree.label,
        fmt_ns(tree.total_ns)
    );
    render_children(&mut out, tree, ROOT_SPAN, tree.total_ns, 0);
    out
}

/// Renders the children of span `parent` (which lasted `parent_ns`)
/// at `depth`, each followed by its own children, then the `(other)`
/// remainder of `parent_ns`.
fn render_children(out: &mut String, tree: &SpanTree, parent: u32, parent_ns: u64, depth: usize) {
    let (mut has_children, mut children_ns) = (false, 0u64);
    for s in tree.spans.iter().filter(|s| s.parent == parent) {
        render_line(out, tree, depth, &s.name, s.dur_ns);
        has_children = true;
        children_ns = children_ns.saturating_add(s.dur_ns);
        if s.id != ROOT_SPAN {
            render_children(out, tree, s.id, s.dur_ns, depth + 1);
        }
    }
    let other = parent_ns.saturating_sub(children_ns);
    if other > 0 && (parent == ROOT_SPAN || has_children) {
        render_line(out, tree, depth, "(other)", other);
    }
}

fn render_line(out: &mut String, tree: &SpanTree, depth: usize, name: &str, ns: u64) {
    out.push_str(&format!(
        "{:indent$}{:<24} {:>5.1}%  {}\n",
        "",
        name,
        100.0 * ns as f64 / tree.total_ns.max(1) as f64,
        fmt_ns(ns),
        indent = 2 + depth * 2,
    ));
}

/// Collects spans for one in-flight request.
///
/// Thread-safe: the serve layer hands an `Arc<SpanRecorder>` to the
/// worker pool, so queue/execute spans are recorded off-thread while
/// the connection thread records cache/store spans. All offsets are
/// relative to the recorder's construction instant.
#[derive(Debug)]
pub struct SpanRecorder {
    trace_id: u64,
    label: String,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// A parent id "anchor" for callees that cannot see the span ids
    /// their caller allocated: the pool sets it to the `execute` span
    /// so the solver closure can nest its phase spans underneath.
    anchor: AtomicU32,
}

impl SpanRecorder {
    /// Starts recording; the construction instant is time zero.
    pub fn new(trace_id: u64, label: impl Into<String>) -> SpanRecorder {
        SpanRecorder {
            trace_id,
            label: label.into(),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            anchor: AtomicU32::new(ROOT_SPAN),
        }
    }

    /// The trace id this recorder was minted with.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Records a span from explicit offsets. Returns its id.
    pub fn add_ns(&self, parent: u32, name: &str, start_ns: u64, dur_ns: u64) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span recorder").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
        id
    }

    /// Records a span from an [`Instant`] + [`Duration`] pair; the
    /// start is clamped to the recorder's time zero.
    pub fn add(&self, parent: u32, name: &str, start: Instant, dur: Duration) -> u32 {
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        self.add_ns(parent, name, start_ns, dur.as_nanos() as u64)
    }

    /// Opens a span starting now with zero length; pair with
    /// [`Self::close`].
    pub fn open(&self, parent: u32, name: &str) -> u32 {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.add_ns(parent, name, start_ns, 0)
    }

    /// Closes an [`Self::open`]ed span: its length becomes
    /// now − start. Unknown ids are ignored.
    pub fn close(&self, id: u32) {
        let now_ns = self.t0.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span recorder");
        if let Some(s) = spans.iter_mut().find(|s| s.id == id) {
            s.dur_ns = now_ns.saturating_sub(s.start_ns);
        }
    }

    /// Publishes a parent id for callees that record under it (see the
    /// field docs); [`ROOT_SPAN`] clears it.
    pub fn set_anchor(&self, id: u32) {
        self.anchor.store(id, Ordering::Release);
    }

    /// The currently published anchor, or [`ROOT_SPAN`].
    pub fn anchor(&self) -> u32 {
        self.anchor.load(Ordering::Acquire)
    }

    /// Finishes the tree: total = time since construction.
    pub fn finish(&self) -> SpanTree {
        SpanTree {
            trace_id: self.trace_id,
            label: self.label.clone(),
            total_ns: self.t0.elapsed().as_nanos() as u64,
            spans: self.spans.lock().expect("span recorder").clone(),
        }
    }
}

/// A bounded ring of finished span trees (newest evicts oldest). The
/// server keeps every traced request's tree here, and its shutdown
/// summary reads back the slowest; `obs trace` reads the journal.
#[derive(Debug)]
pub struct SpanRing {
    cap: usize,
    inner: Mutex<SpanRingInner>,
}

#[derive(Debug, Default)]
struct SpanRingInner {
    buf: VecDeque<SpanTree>,
    recorded: u64,
}

impl SpanRing {
    /// An empty ring holding at most `cap` trees (`cap = 0` keeps 1).
    pub fn new(cap: usize) -> SpanRing {
        SpanRing {
            cap: cap.max(1),
            inner: Mutex::new(SpanRingInner::default()),
        }
    }

    /// Appends a tree, evicting the oldest when full.
    pub fn push(&self, tree: SpanTree) {
        let mut inner = self.inner.lock().expect("span ring");
        if inner.buf.len() == self.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back(tree);
        inner.recorded += 1;
    }

    /// Total trees ever pushed (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("span ring").recorded
    }

    /// The `n` slowest trees still held, slowest first; equal totals
    /// go to the smaller trace id.
    pub fn slowest(&self, n: usize) -> Vec<SpanTree> {
        let inner = self.inner.lock().expect("span ring");
        let mut all: Vec<&SpanTree> = inner.buf.iter().collect();
        all.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.trace_id.cmp(&b.trace_id))
        });
        all.into_iter().take(n).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_formatting_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None, "zero is the untraced sentinel");
        assert_eq!(parse_trace_id("00000000000000000"), None, "17 digits");
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("+1"), None, "a sign is not a hex digit");
        assert_eq!(parse_trace_id("ABC"), Some(0xabc), "case-insensitive");
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a > 0 && b > a);
    }

    #[test]
    fn minting_moves_past_an_earlier_lifes_ids() {
        let earlier = next_trace_id() + 1_000;
        mint_trace_ids_after(earlier);
        assert!(next_trace_id() > earlier);
        // Never backwards.
        mint_trace_ids_after(1);
        assert!(next_trace_id() > earlier);
    }

    #[test]
    fn units_scale() {
        assert_eq!(fmt_ns(17), "17 ns");
        assert_eq!(fmt_ns(1_700), "1.7 µs");
        assert_eq!(fmt_ns(1_700_000), "1.70 ms");
        assert_eq!(fmt_ns(1_700_000_000), "1.70 s");
    }

    fn sample_tree() -> SpanTree {
        SpanTree {
            trace_id: 0xabc,
            label: "SOLVE hash:12 R=3".into(),
            total_ns: 10_000,
            spans: vec![
                Span {
                    id: 1,
                    parent: ROOT_SPAN,
                    name: "queue".into(),
                    start_ns: 0,
                    dur_ns: 1_000,
                },
                Span {
                    id: 2,
                    parent: ROOT_SPAN,
                    name: "execute".into(),
                    start_ns: 1_000,
                    dur_ns: 8_000,
                },
                Span {
                    id: 3,
                    parent: 2,
                    name: "gather views".into(),
                    start_ns: 1_100,
                    dur_ns: 4_000,
                },
            ],
        }
    }

    #[test]
    fn text_serialisation_round_trips() {
        let tree = sample_tree();
        let text = tree.to_text();
        assert!(text.starts_with(SPAN_TEXT_MAGIC));
        assert_eq!(SpanTree::parse_text(&text).unwrap(), tree);
    }

    #[test]
    fn parse_rejects_damage() {
        assert!(SpanTree::parse_text("").is_err());
        assert!(SpanTree::parse_text("mmlpspan 2\ntrace 1 0 x\n").is_err());
        assert!(SpanTree::parse_text("mmlpspan 1\n").is_err());
        assert!(SpanTree::parse_text("mmlpspan 1\ntrace zz 0 x\n").is_err());
        assert!(SpanTree::parse_text("mmlpspan 1\ntrace 1 5 l\nbogus\n").is_err());
    }

    #[test]
    fn render_nests_children_and_keeps_names_with_spaces() {
        let r = render_span_tree(&sample_tree());
        assert!(r.contains("trace 0000000000000abc"), "{r}");
        assert!(r.contains("queue"), "{r}");
        assert!(r.contains("gather views"), "{r}");
        // The child is indented two levels (2 + 2 spaces).
        assert!(r.contains("\n    gather views"), "{r}");
        assert!(r.contains("80.0%"), "{r}");
        // What the children leave of the root (10 − 1 − 8 µs) and of
        // `execute` (8 − 4 µs); `queue` has no children, so no line.
        let other: Vec<&str> = r.lines().filter(|l| l.contains("(other)")).collect();
        assert_eq!(other.len(), 2, "{r}");
        assert!(other[0].starts_with("    (other)"), "{r}");
        assert!(other[0].ends_with("40.0%  4.0 µs"), "{r}");
        assert!(other[1].starts_with("  (other)"), "{r}");
        assert!(other[1].ends_with("10.0%  1.0 µs"), "{r}");
        assert_eq!(r.lines().last(), Some(other[1]), "root remainder last");
    }

    #[test]
    fn recorder_tracks_offsets_and_anchor() {
        let rec = SpanRecorder::new(7, "req");
        let a = rec.add_ns(ROOT_SPAN, "cache", 10, 20);
        rec.set_anchor(a);
        assert_eq!(rec.anchor(), a);
        let b = rec.add_ns(rec.anchor(), "gather", 12, 5);
        let opened = rec.open(ROOT_SPAN, "store");
        rec.close(opened);
        let tree = rec.finish();
        assert_eq!(tree.trace_id, 7);
        assert_eq!(tree.spans.len(), 3);
        assert_eq!(tree.spans[1].id, b);
        assert_eq!(tree.spans[1].parent, a);
        assert!(tree.total_ns > 0);
        let store = &tree.spans[2];
        assert!(store.start_ns <= tree.total_ns);
    }

    fn tree(id: u64, total_ns: u64) -> SpanTree {
        SpanTree {
            trace_id: id,
            label: format!("solve #{id}"),
            total_ns,
            spans: vec![Span {
                id: 1,
                parent: ROOT_SPAN,
                name: "execute".into(),
                start_ns: 0,
                dur_ns: total_ns / 2,
            }],
        }
    }

    #[test]
    fn ring_evicts_oldest_and_ranks_slowest() {
        let ring = SpanRing::new(3);
        assert!(ring.slowest(3).is_empty());
        for (id, total) in [(1, 50), (2, 900), (3, 10), (4, 200)] {
            ring.push(tree(id, total));
        }
        assert_eq!(ring.recorded(), 4, "recorded counts evictions too");
        let ids = |trees: Vec<SpanTree>| trees.iter().map(|t| t.trace_id).collect::<Vec<_>>();
        assert_eq!(ids(ring.slowest(2)), [2, 4]);
        // Asking for more than held returns everything, still sorted;
        // the oldest (id 1) was evicted.
        assert_eq!(ids(ring.slowest(10)), [2, 4, 3]);
        // Ties on total_ns break towards the smaller trace id.
        let tied = SpanRing::new(4);
        for id in [3u64, 1, 2] {
            tied.push(tree(id, 100));
        }
        assert_eq!(ids(tied.slowest(4)), [1, 2, 3]);
    }

    /// Hammer the ring from many writer threads while readers pull
    /// `slowest(n)` snapshots: every observed tree must be internally
    /// consistent (no torn reads — label, total and span are all
    /// derived from the trace id, so any mix-up is detectable),
    /// `slowest` must stay sorted, and after the dust settles the
    /// wraparound accounting must be exact.
    #[test]
    fn concurrent_writers_never_tear_trees() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 500;
        const CAP: usize = 64;

        fn check(t: &SpanTree) {
            let id = t.trace_id;
            assert_eq!(t.label, format!("solve #{id}"), "torn label");
            assert_eq!(t.total_ns, id * 10, "torn total");
            assert_eq!(t.spans.len(), 1, "torn spans");
            assert_eq!(t.spans[0].dur_ns, id * 10 / 2, "torn span ns");
        }

        let ring = Arc::new(SpanRing::new(CAP));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let slow = ring.slowest(16);
                        for w in slow.windows(2) {
                            assert!(w[0].total_ns >= w[1].total_ns, "slowest(n) out of order");
                        }
                        slow.iter().for_each(check);
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        let id = w * PER_WRITER + i + 1;
                        ring.push(tree(id, id * 10));
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }

        // Wraparound accounting: every push counted, only CAP retained.
        assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
        let survivors = ring.slowest(usize::MAX);
        assert_eq!(survivors.len(), CAP);
        survivors.iter().for_each(check);
    }
}
