//! Positive fixture: the pool-concurrency rules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn scan(wp: &Pool) -> usize {
    let mut total = 0;
    let cache = Mutex::new(Vec::new());
    let out = wp.run("detlint.busy", 8, |i| {
        total += i;
        cache.lock().unwrap().push(i);
        i * 2
    });
    total = out.len();
    total
}

fn counter_value(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn stats_view(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn bump(c: &AtomicU64) {
    let _ = c.load(Ordering::Relaxed);
}

fn split(wp: &Pool, parts: &mut [Vec<u32>], bounds: &[usize]) -> usize {
    let mut seen = 0;
    wp.run_split("detlint.busy", parts, bounds, |_, part| {
        seen += part[0].len();
    });
    seen = 1;
    seen
}
