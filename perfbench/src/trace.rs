//! Spans recorded from outside the library: the benchmark opens a span
//! around each call it makes into a layer's public function. A span keeps
//! its name, start, end and parent (the innermost span open on the same
//! thread); self time is the span's duration minus its children's.
//!
//! A disabled tracer records nothing and costs one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

pub struct Tracer {
    id: usize,
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(tracer id, span index)` of the spans open on this thread,
    /// innermost last.
    static OPEN: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.origin.elapsed();
            // A poisoned log already failed the run; never panic in drop.
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[i].end = end;
            }
            OPEN.with(|open| open.borrow_mut().pop());
        }
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Default)]
pub struct SpanStats {
    /// Duration of each span, in milliseconds, in recording order.
    pub durations_ms: Vec<f64>,
    /// Summed self time, in milliseconds.
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&self, name: &'static str, by: u64) {
        if self.on {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name)
                .or_default() += by;
        }
    }

    /// Current value of the counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` as a child of the innermost span open on
    /// this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let parent = OPEN.with(|open| {
            let open = open.borrow();
            open.iter()
                .rev()
                .find(|(t, _)| *t == self.id)
                .map(|&(_, i)| i)
        });
        let start = self.origin.elapsed();
        let index = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push((self.id, index)));
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Aggregates every closed span by name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ms = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ms[p] += ms(s.end - s.start);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let d = ms(s.end - s.start);
            let e = out.entry(s.name).or_default();
            e.durations_ms.push(d);
            e.self_ms += d - child_ms[i];
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
