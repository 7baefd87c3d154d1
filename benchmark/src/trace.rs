//! Spans recorded by the benchmark around its calls into each layer — name,
//! start, end, the span that caused it, and the unit of work (pass or job)
//! they belong to. Kept in memory, written out when the run ends. Switched
//! off, `enter`/`exit` cost one branch and never read the clock, which is
//! how end-to-end metrics are measured.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The pass or job this span belongs to; spans of one unit share it.
    pub unit: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    /// Added to every unit number, so that windows traced one after the
    /// other keep their units apart.
    unit_base: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Tracers of one run share `epoch` so their spans share a time axis.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            unit_base: 0,
            spans: Vec::new(),
        }
    }

    pub fn with_unit_base(mut self, unit_base: u64) -> Tracer {
        self.unit_base = unit_base;
        self
    }

    /// A tracer on the same time axis, switch and unit base (one per client
    /// thread).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.on).with_unit_base(self.unit_base)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, unit: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit_base + unit,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// A span stamped elsewhere (the daemon's journal), already on this
    /// tracer's time axis.
    pub fn record(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                unit: self.unit_base + unit,
                parent,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Appends another tracer's spans (a second client thread's), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + offset);
            span
        }));
    }

    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time per span name, in milliseconds, first-seen order.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut totals: Vec<(&'static str, f64, usize)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            match totals.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(total) => {
                    total.1 += self_ns as f64 / 1e6;
                    total.2 += 1;
                }
                None => totals.push((span.name, self_ns as f64 / 1e6, 1)),
            }
        }
        totals
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(span.name)),
                        ("unit", Json::Num(span.unit as f64)),
                        (
                            "parent",
                            span.parent
                                .map_or(Json::Null, |parent| Json::Num(parent as f64)),
                        ),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover. Children that overlap each other (partitions running
/// side by side) are counted once, and a child reaching outside its parent
/// is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (low, high) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(low, high), span.end_ns.clamp(low, high));
            if clipped.1 > clipped.0 {
                children[parent].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            unit: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child
            span(Some(0), 30, 60),  // overlaps the first child
            span(Some(0), 90, 130), // reaches past the root: clipped to 90..100
            span(Some(1), 15, 20),  // grandchild
            span(Some(0), 70, 70),  // empty
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 50 - 10, 30 - 5, 30, 40, 5, 0]
        );
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut off = Tracer::new(Instant::now(), false);
        let id = off.enter("x", 1, None);
        off.exit(id);
        off.record("y", 1, None, 0, 5);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(Instant::now(), true);
        let root = on.enter("root", 7, None);
        let child = on.enter("child", 7, root);
        on.exit(child);
        on.exit(root);
        let mut other = Tracer::new(Instant::now(), true);
        let r2 = other.enter("root", 8, None);
        let c2 = other.enter("child", 8, r2);
        other.exit(c2);
        other.exit(r2);
        on.absorb(other);
        assert_eq!(on.spans.len(), 4);
        assert_eq!(on.spans[3].parent, Some(2));
        assert_eq!(on.durations_ms("child").len(), 2);
        let by_name = on.self_ms_by_name();
        assert_eq!(
            by_name.iter().map(|t| (t.0, t.2)).collect::<Vec<_>>(),
            [("root", 2), ("child", 2)]
        );
    }
}
