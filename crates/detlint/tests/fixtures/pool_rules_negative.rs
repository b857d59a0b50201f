#![forbid(unsafe_code)]
//! Negative fixture: exempt shapes for the pool-concurrency rules.

fn stats(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn account(c: &AtomicU64) {
    c.load(Ordering::Relaxed);
}

fn tally(wp: &Pool) -> usize {
    let total = 0;
    let out = wp.run("t", 4, |i| {
        let local = total + i;
        local
    });
    out.len()
}

fn sum_parts(wp: &Pool, parts: &[Vec<u32>]) -> Vec<u32> {
    let (mut s, mut d) = (0, 0);
    s += 1;
    d += 1;
    wp.run("t", parts.len(), |i| {
        let mut n = 0;
        for &s in &parts[i] {
            n += s;
        }
        n + parts[i].iter().map(|&d| d * 2).sum::<u32>()
    })
}
