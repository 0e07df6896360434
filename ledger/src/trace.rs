//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions — nothing inside the program under test is
//! instrumented. Each span keeps its name, start, end, the span that
//! caused it, and a unit count (mutations in a batch, facts in a read).
//! A layer's *self time* is its duration minus the part of that interval
//! its child spans cover.

use std::time::Instant;

use corroborate_obs::Json;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer metric the span feeds (e.g. `wal.append`).
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the span covered (at least 1).
    pub units: u64,
}

/// A single-threaded span recorder; one per generator thread, merged at
/// the end with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between tracers that will be merged).
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` covering `units` units of work;
    /// spans opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, units: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(SpanRec { name, start_ns, end_ns: start_ns, parent, units: units.max(1) });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        result
    }

    /// Records a span timed elsewhere (e.g. a client-side interval),
    /// parented to the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, units: u64) {
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec { name, start_ns, end_ns, parent, units: units.max(1) });
    }

    /// Moves every span of `other` (same origin) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span itself).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time per unit of every span named `name`, in nanoseconds.
    pub fn self_ns_per_unit(&self, name: &str) -> Vec<f64> {
        self.self_times()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, s)| t as f64 / s.units as f64)
            .collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent, units]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::from(s.name),
                        Json::from(s.start_ns),
                        Json::from(s.end_ns),
                        s.parent.map_or(Json::Null, Json::from),
                        Json::from(s.units),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec { name, start_ns, end_ns, parent, units: 1 }
    }

    fn tracer(spans: Vec<SpanRec>) -> Tracer {
        Tracer { origin: Instant::now(), spans, open: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // epoch [0,100) with wal [10,30), rescore [40,90) which itself has
        // publish [80,90).
        let t = tracer(vec![
            rec("epoch", 0, 100, None),
            rec("wal", 10, 30, Some(0)),
            rec("rescore", 40, 90, Some(0)),
            rec("publish", 80, 90, Some(2)),
        ]);
        assert_eq!(t.self_times(), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        // Children from two merged threads overlap, one runs past the end.
        let t = tracer(vec![
            rec("outer", 100, 200, None),
            rec("a", 110, 150, Some(0)),
            rec("b", 140, 170, Some(0)),
            rec("c", 190, 260, Some(0)),
        ]);
        // Covered: [110,170) + [190,200) = 70.
        assert_eq!(t.self_times()[0], 30);
    }

    #[test]
    fn nested_closures_record_parents_and_units() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 1, |t| {
            t.span("inner", 4, |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].units, 4);
        let selfs = t.self_times();
        assert!(selfs[1] >= 2_000_000);
        assert!(selfs[0] < selfs[1], "the child's sleep is not the parent's self time");
        assert_eq!(t.self_ns_per_unit("inner")[0], selfs[1] as f64 / 4.0);

        let mut other = Tracer::new(t.origin);
        other.span("x", 1, |t| t.span("y", 1, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.count("y"), 1);
    }
}
