//! Spans for the traced run. Each timed call into a layer records its
//! name, start, end, parent span and request id; spans stay in memory
//! and are written out when the run ends.
//!
//! The replay times a layer's public entry point and, separately, the
//! public functions it is built from (for example `Engine::put`, then
//! `parse_instance` and `instance_hash` on the same input), recording
//! the latter as children. A span's self time is therefore its duration
//! minus the summed durations of its children, floored at zero.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or batch of identical calls).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `textfmt.parse`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the parent span; `None` for a request root.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: u64,
    /// Calls timed together; the span's duration is per call.
    pub reps: u32,
}

impl Span {
    /// Duration of one call, in ns.
    pub fn duration_ns(&self) -> u64 {
        (self.end_ns - self.start_ns) / u64::from(self.reps.max(1))
    }
}

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    /// Every span recorded, parents before children.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that is closed later with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(name, parent, request, now, now, 1)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times one call of `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Times `reps` calls of `f` as one span: for calls too short for
    /// the clock to time one by one.
    pub fn batch(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        reps: u32,
        mut f: impl FnMut(),
    ) -> usize {
        let start = self.now_ns();
        for _ in 0..reps {
            f();
        }
        let end = self.now_ns();
        self.push(name, parent, request, start, end, reps)
    }

    /// Records a span measured elsewhere (a phase time the solver
    /// reports about itself).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        reps: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            reps,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in ns, indexed like `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// The spans as tab-separated text: id, parent, request, name,
    /// start, end, reps, self time.
    pub fn to_tsv(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\treps\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns, s.reps, selfs[i]
            );
        }
        out
    }
}

/// Each span's per-call duration minus the per-call durations of its
/// direct children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, reps: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
            reps,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 1000, None, 1),      // 0
            span("engine.put", 0, 600, Some(0), 1), // 1
            span("textfmt.parse", 0, 200, Some(1), 1),
            span("hash.instance", 200, 500, Some(1), 1), // 3
            span("textfmt.write", 200, 450, Some(3), 1),
            span("protocol.parse_command", 600, 1000, Some(0), 4), // 100 per call
        ];
        // request: 1000 − (600 + 100); put: 600 − (200 + 300);
        // hash: 300 − 250; leaves keep their whole duration.
        assert_eq!(self_times(&spans), vec![300, 100, 200, 50, 250, 100]);
    }

    #[test]
    fn children_measured_apart_can_only_floor_a_parent_at_zero() {
        let spans = vec![
            span("engine.execute", 0, 100, None, 1),
            span("transform.special_form", 100, 180, Some(0), 1),
            span("distributed.solve", 180, 260, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![0, 80, 80]);
    }

    #[test]
    fn recorder_nests_and_batches() {
        let mut rec = Recorder::new();
        let root = rec.open("request", None, 1);
        let (child, v) = rec.time("leaf", Some(root), 1, || 41 + 1);
        assert_eq!(v, 42);
        let mut calls = 0;
        rec.batch("tiny", Some(root), 1, 8, || calls += 1);
        rec.close(root);
        assert_eq!(calls, 8);
        assert_eq!(rec.spans[child].parent, Some(root));
        assert_eq!(rec.spans[2].reps, 8);
        let selfs = rec.self_times();
        let sum: u64 = rec.spans[1..].iter().map(Span::duration_ns).sum::<u64>() + selfs[0];
        assert!(sum <= rec.spans[0].duration_ns());
        assert!(rec.to_tsv().lines().count() == 4);
    }
}
