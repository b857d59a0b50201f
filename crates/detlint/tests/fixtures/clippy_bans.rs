//! Negative control for the clippy bans in the root `clippy.toml`: every
//! line marked `// banned` must raise exactly one `disallowed` error.
//! Built as a throwaway crate outside the workspace (see the CI step
//! "Clippy bans negative control"); never compiled as part of it.

use std::collections::hash_map::{
    DefaultHasher, // banned
    RandomState,   // banned
};
use std::collections::{
    HashMap as Table, // banned
    HashSet,          // banned
};
use std::thread;
use std::time::{Instant, SystemTime};

type Memo = Table<u32, u32>; // banned

pub fn demo() {
    let mut m: Memo = Memo::new();
    m.insert(1, 2);
    let _s: HashSet<u32> = Default::default(); // banned
    let _h = DefaultHasher::new(); // banned
    let _r = RandomState::new(); // banned
    let _t0 = Instant::now(); // banned
    let _wall = SystemTime::now(); // banned
    let h = thread::spawn(|| 42); // banned
    let _ = h.join();
    let b = thread::Builder::new().spawn(|| 1); // banned
    let _ = b.map(|h| h.join());
    crossbeam::thread::scope(|_| {}).unwrap(); // banned
}
