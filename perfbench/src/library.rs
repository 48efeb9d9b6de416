//! An activity library whose every program is counted and, when tracing,
//! wrapped in an `activity.<binding>` span.

use crate::trace::Tracer;
use bioopera_core::ActivityLibrary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Executions per binding, in `ActivityLibrary::names()` order.
pub struct ActivityCounts {
    names: Vec<String>,
    calls: Vec<AtomicU64>,
}

impl ActivityCounts {
    /// Executions of every binding so far.
    pub fn total(&self) -> u64 {
        self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// `(binding, executions)` for every binding, sorted by binding.
    pub fn all(&self) -> Vec<(String, u64)> {
        self.names
            .iter()
            .zip(&self.calls)
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// Rebuild `inner` from its `names()` / `get()` with every program
/// metered.  Returns the wrapped library and its counters.
pub fn meter(
    inner: &ActivityLibrary,
    tracer: &Arc<Tracer>,
) -> (ActivityLibrary, Arc<ActivityCounts>) {
    let names: Vec<String> = inner.names().into_iter().map(str::to_string).collect();
    let counts = Arc::new(ActivityCounts {
        calls: names.iter().map(|_| AtomicU64::new(0)).collect(),
        names: names.clone(),
    });
    let mut lib = ActivityLibrary::new();
    for (i, binding) in names.iter().enumerate() {
        let program = inner.get(binding).expect("binding listed by names()");
        let span = tracer.intern(&format!("activity.{binding}"));
        let tracer = Arc::clone(tracer);
        let counts = Arc::clone(&counts);
        lib.register(binding.clone(), move |inputs| {
            let t = tracer.leaf_start();
            let out = program(inputs);
            tracer.leaf_end(span, t);
            // A statistic; publishes no other data.
            counts.calls[i].fetch_add(1, Ordering::Relaxed);
            out
        });
    }
    (lib, counts)
}
