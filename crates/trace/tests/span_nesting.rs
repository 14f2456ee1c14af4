//! Property test: span open/close stays balanced per thread under
//! deterministic pseudo-random nesting across many threads, and every
//! recorded event carries the depth its nest shape predicts.

use photonn_trace as trace;

/// Recursively open `depth` nested spans, recording the names used.
fn nest(names: &[&'static str], depth: usize) {
    if depth == 0 {
        return;
    }
    let _s = trace::span(names[names.len() - depth]);
    nest(names, depth - 1);
}

#[test]
fn balanced_nesting_across_threads() {
    const NAMES: [&str; 4] = ["nest.d0", "nest.d1", "nest.d2", "nest.d3"];
    const THREADS: usize = 8;
    const REPS: usize = 25;

    trace::set_enabled(true);
    trace::reset();

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for i in 0..THREADS {
            workers.push(scope.spawn(move || {
                // Thread i nests to depth (i % 4) + 1, REPS times; a tiny
                // LCG varies the interleaving with some leaf-only opens.
                let depth = (i % NAMES.len()) + 1;
                let mut state = (i as u64).wrapping_mul(6364136223846793005) + 1;
                for _ in 0..REPS {
                    nest(&NAMES[..depth], depth);
                    assert_eq!(
                        trace::open_spans(),
                        0,
                        "thread {i} left spans open after a nest"
                    );
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state.is_multiple_of(3) {
                        let _leaf = trace::span("nest.extra");
                    }
                    assert_eq!(trace::open_spans(), 0);
                }
            }));
        }
        // Joining waits for each thread's exit flush; the scope's own
        // implicit join can return before it.
        for worker in workers {
            worker.join().unwrap();
        }
    });

    trace::set_enabled(false);
    let t = trace::collect();
    trace::reset();

    // Each thread at depth k contributes REPS events at every level
    // 0..k; check the per-name totals across the whole process.
    for (level, name) in NAMES.iter().enumerate() {
        let expect: usize = (0..THREADS)
            .filter(|i| (i % NAMES.len()) + 1 > level)
            .count()
            * REPS;
        let got = t.events.iter().filter(|e| e.name == *name).count();
        assert_eq!(got, expect, "event count for {name}");
        assert!(
            t.events
                .iter()
                .filter(|e| e.name == *name)
                .all(|e| e.depth as usize == level),
            "all {name} events close at depth {level}"
        );
    }

    // Per-thread containment: a depth-d event must lie inside some
    // depth-(d-1) event on the same thread.
    for ev in t.events.iter().filter(|e| e.depth > 0) {
        let contained = t.events.iter().any(|outer| {
            outer.tid == ev.tid
                && outer.depth + 1 == ev.depth
                && outer.start_ns <= ev.start_ns
                && ev.start_ns + ev.dur_ns <= outer.start_ns + outer.dur_ns
        });
        assert!(contained, "event {ev:?} not contained by a parent span");
    }
}
