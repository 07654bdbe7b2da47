//! The benchmark's own span recorder. Each recording thread owns a
//! [`SpanBuf`] allocated before the traced loop starts; recording a span is
//! a bounds check and a push into spare capacity, never an allocation, and
//! a full buffer counts what it drops. After the loop the buffers are
//! merged into a [`Trace`], which computes self times and writes Chrome
//! trace-event JSON.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 = none); spans of one operation chain up to its `bench.op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u32,
    /// A count at the boundary (batch size, items), or a wire id.
    pub arg: u64,
}

/// Trace lanes (Chrome-trace `tid`s).
pub const GEN_TID: u32 = 1;
pub const WORKER_TID: u32 = 2;
pub const SERVER_TID: u32 = 3;
pub const CLIENT_TID: u32 = 10;
pub const PROBE_TID: u32 = 20;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id, unique in the process. Ids are handed out before the
/// interval ends so that children recorded meanwhile can name their parent.
pub fn new_id() -> u64 {
    // Relaxed: uniqueness is all that is asked of the counter.
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A single thread's pre-allocated span storage.
#[derive(Debug)]
pub struct SpanBuf {
    tid: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(tid: u32, capacity: usize) -> Self {
        Self {
            tid,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Forgets every recorded span and drop; the capacity stays.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.dropped = 0;
    }

    /// What has been recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records one finished interval; drops (and counts) it when full.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        arg: u64,
    ) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            tid: self.tid,
            arg,
        });
    }
}

/// Count, summed duration and summed self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The merged spans of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
    threads: Vec<(u32, String)>,
}

impl Trace {
    /// Takes over a thread's buffer, naming its lane in the export.
    pub fn absorb(&mut self, thread_name: &str, buf: SpanBuf) {
        self.threads.push((buf.tid, thread_name.to_string()));
        self.dropped += buf.dropped;
        self.spans.extend(buf.spans);
    }

    /// All spans of one name, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per-name totals. A span's self time is its duration minus the part
    /// of its interval that its child spans cover (overlapping children are
    /// not counted twice).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Writes the trace to `path` (creating its directory); see
    /// [`Trace::write_chrome_to`].
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_to(&mut w)?;
        // A dropped BufWriter swallows write errors; flush and report them.
        w.flush()
    }

    /// Writes the trace as Chrome trace-event JSON (array form, µs units;
    /// open in `chrome://tracing` or ui.perfetto.dev). Every slice carries
    /// its `id` and its `parent` id in `args`.
    pub fn write_chrome_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"[")?;
        let mut first = true;
        let mut sep = |w: &mut W| -> io::Result<()> {
            if !first {
                w.write_all(b",\n")?;
            }
            first = false;
            Ok(())
        };
        for (tid, name) in &self.threads {
            sep(w)?;
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for s in &self.spans {
            sep(w)?;
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"arg\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.arg
            )?;
        }
        w.write_all(b"]\n")
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut buf = SpanBuf::with_capacity(1, 8);
        buf.record("op", 10, 0, 0, 100, 0);
        buf.record("child", 11, 10, 10, 40, 0);
        buf.record("child", 12, 10, 30, 60, 0); // overlaps the first by 10
        buf.record("child", 13, 10, 90, 130, 0); // sticks out past the parent
        buf.record("grandchild", 14, 11, 15, 20, 0);
        let mut trace = Trace::default();
        trace.absorb("main", buf);
        let t = trace.totals();
        assert_eq!(t["op"].total_ns, 100);
        // Children cover [10,60] and [90,100] of the parent: 60 ns.
        assert_eq!(t["op"].self_ns, 40);
        assert_eq!(t["child"].count, 3);
        assert_eq!(t["child"].total_ns, 30 + 30 + 40);
        assert_eq!(t["child"].self_ns, 100 - 5);
        assert_eq!(t["grandchild"].self_ns, 5);
    }

    #[test]
    fn a_full_buffer_counts_drops_instead_of_growing() {
        let mut buf = SpanBuf::with_capacity(1, 2);
        for i in 0..5 {
            buf.record("s", i + 1, 0, i, i + 1, 0);
        }
        assert_eq!(buf.spans.capacity(), 2);
        let mut trace = Trace::default();
        trace.absorb("main", buf);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.dropped, 3);
    }

    #[test]
    fn chrome_export_is_a_json_array_with_parent_links() {
        let mut buf = SpanBuf::with_capacity(7, 2);
        buf.record("bench.op", 1, 0, 1_000, 3_000, 64);
        buf.record("engine.serve", 2, 1, 1_100, 2_900, 64);
        let mut trace = Trace::default();
        trace.absorb("generator", buf);
        let mut out = Vec::new();
        trace.write_chrome_to(&mut out).expect("write trace");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with('[') && text.trim_end().ends_with(']'));
        assert!(text.contains("\"name\":\"engine.serve\""));
        assert!(text.contains("\"args\":{\"id\":2,\"parent\":1,\"arg\":64}"));
        assert!(text.contains("\"thread_name\""));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
    }
}
