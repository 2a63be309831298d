//! Spans around the calls `perf` makes into each layer.
//!
//! Spans are kept in memory and written out as Chrome-trace JSON when the
//! traced pass ends. With the tracer off, [`Tracer::span`] only calls its
//! closure: the untraced pass pays one branch per call.

use crate::json::Json;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to: the identifier spans of one
    /// repetition share.
    pub rep: u32,
    /// Small per-thread number, for the trace viewer's rows.
    pub tid: u32,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
    rep: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), inner: Mutex::default() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next repetition; spans recorded from now on carry its id.
    pub fn next_rep(&self) {
        self.lock().rep += 1;
    }

    /// Runs `f` inside a span named `name`, nested in whichever span the
    /// driving thread has open. Only the thread driving the workload may
    /// call this; other threads record with [`leaf`](Self::leaf).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.lock();
            let index = inner.spans.len();
            let (parent, rep) = (inner.stack.last().copied(), inner.rep);
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                rep,
                tid: thread_number(),
            });
            inner.stack.push(index);
            index
        };
        let out = f();
        let mut inner = self.lock();
        inner.spans[index].end_ns = self.now_ns();
        inner.stack.pop();
        out
    }

    /// Runs `f` as a childless span under the driving thread's innermost
    /// open span. Safe from any thread: the serve workers call the
    /// counting store while the driving thread waits inside `Service::run`.
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let (parent, rep) = (inner.stack.last().copied(), inner.rep);
        inner.spans.push(Span { name, start_ns, end_ns, parent, rep, tid: thread_number() });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) rendering of the spans.
    pub fn chrome_trace(&self) -> Json {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let events = spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.tid))),
                    (
                        "args",
                        Json::obj([
                            ("rep", Json::Num(f64::from(s.rep))),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("self_us", Json::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children on different threads may overlap each
/// other, so what is subtracted is the length of their union, clipped to
/// the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, rep: 0, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),   // 20 covered
            span(20, 50, Some(0)),   // overlaps the first: adds 30..50
            span(60, 70, Some(0)),   // 10 more
            span(90, 120, Some(0)),  // clipped to the parent: 90..100
            span(22, 28, Some(1)),   // grandchild: charged to span 1 only
            span(200, 210, Some(0)), // outside the parent: ignored
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 20 - 6, 30, 10, 30, 6, 10]);
    }

    #[test]
    fn spans_nest_and_leaves_attach_to_the_open_span() {
        let t = Tracer::new(true);
        t.next_rep();
        t.span("outer", || {
            t.span("inner", || ());
            std::thread::scope(|s| {
                s.spawn(|| t.leaf("store", || ()));
            });
        });
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(names, [("outer", None, 1), ("inner", Some(0), 1), ("store", Some(0), 1)]);
        assert_ne!(spans[2].tid, spans[0].tid);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(t.chrome_trace().render().contains("\"traceEvents\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || t.leaf("b", || 7)), 7);
        assert!(t.spans().is_empty());
    }
}
