//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around its
//! calls into the library (the library is not instrumented for this). Each
//! span has a name, a start, an end, a parent and a round id shared by the
//! spans of one round. Self time is computed when a span closes: its
//! duration minus the union of its children's intervals, so children that
//! ran in parallel on several workers are not subtracted twice.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Span records kept for the trace file; later spans still count toward
/// self time but are not written out.
const MAX_KEPT_SPANS: usize = 200_000;

/// One closed span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub round: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Accumulated time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    parent: Option<u64>,
    round: Option<u64>,
    start_ns: u64,
    children: Vec<(u64, u64)>,
}

#[derive(Default)]
struct State {
    next_id: u64,
    open: HashMap<u64, Open>,
    kept: Vec<SpanRecord>,
    dropped: u64,
    by_name: BTreeMap<&'static str, SelfTime>,
}

/// Thread-safe span recorder. Spans close on whichever thread ran them.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` in nanoseconds since the tracer started (0 if earlier).
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span now and returns its id.
    pub fn begin(&self, name: &'static str, parent: Option<u64>, round: Option<u64>) -> u64 {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        st.next_id += 1;
        let id = st.next_id;
        st.open.insert(
            id,
            Open {
                name,
                parent,
                round,
                start_ns,
                children: Vec::new(),
            },
        );
        id
    }

    /// Closes span `id` now. Closing an unknown or already closed id is a
    /// no-op.
    pub fn end(&self, id: u64) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        if let Some(open) = st.open.remove(&id) {
            close(&mut st, id, open, end_ns);
        }
    }

    /// Records a span that is already over, such as a client update whose
    /// wall time a library event reported after the fact.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        round: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let mut st = self.lock();
        st.next_id += 1;
        let id = st.next_id;
        let open = Open {
            name,
            parent,
            round,
            start_ns,
            children: Vec::new(),
        };
        close(&mut st, id, open, end_ns.max(start_ns));
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        round: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, round);
        let out = f();
        self.end(id);
        out
    }

    /// Per-name totals of every closed span.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self.lock().by_name.clone()
    }

    /// The kept span records, in closing order.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().kept.clone()
    }

    /// Writes the kept spans as JSON lines and returns how many were
    /// written and how many were closed but not kept.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        let st = self.lock();
        let mut out = String::with_capacity(st.kept.len() * 96);
        for s in &st.kept {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.round.map_or("null".to_string(), |r| r.to_string()),
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok((st.kept.len(), st.dropped))
    }
}

/// Runs `f` inside a span when tracing, and just runs it otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    round: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, round, f),
        None => f(),
    }
}

fn close(st: &mut State, id: u64, mut open: Open, end_ns: u64) {
    let dur = end_ns.saturating_sub(open.start_ns);
    let covered = union_len(&mut open.children, open.start_ns, end_ns);
    let entry = st.by_name.entry(open.name).or_default();
    entry.count += 1;
    entry.total_ns += dur;
    entry.self_ns += dur - covered;
    if let Some(parent) = open.parent.and_then(|p| st.open.get_mut(&p)) {
        parent.children.push((open.start_ns, end_ns));
    }
    if st.kept.len() < MAX_KEPT_SPANS {
        st.kept.push(SpanRecord {
            id,
            parent: open.parent,
            round: open.round,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    } else {
        st.dropped += 1;
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
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
    fn union_counts_overlapping_children_once() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (45, 48)];
        assert_eq!(union_len(&mut iv, 0, 100), 30);
        let mut clipped = vec![(0, 20), (90, 200)];
        assert_eq!(union_len(&mut clipped, 10, 100), 20);
    }

    #[test]
    fn self_time_subtracts_parallel_children_once() {
        let t = Tracer::new();
        let round = t.begin("round", None, Some(0));
        let start = t.now_ns();
        // Two clients that ran side by side on two workers.
        t.record("client", Some(round), Some(0), start, start + 1_000);
        t.record("client", Some(round), Some(0), start, start + 1_000);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(round);
        let times = t.self_times();
        let r = times["round"];
        let c = times["client"];
        assert_eq!(c.count, 2);
        assert_eq!(c.self_ns, 2_000);
        assert_eq!(r.total_ns - r.self_ns, 1_000, "children cover 1 µs once");
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.round == Some(0)));
        assert_eq!(spans[0].parent, Some(round));
    }

    #[test]
    fn writes_one_json_object_per_span() {
        let t = Tracer::new();
        t.span("outer", None, None, || {
            t.span("inner", None, Some(3), || ())
        });
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(t.write_jsonl(&path).unwrap(), (2, 0));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = calibre_telemetry::JsonValue::parse(line).unwrap();
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
            assert!(v.get("start_us").and_then(|n| n.as_f64()).is_some());
        }
    }
}
