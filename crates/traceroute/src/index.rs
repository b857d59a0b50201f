//! A corpus's address index (DESIGN.md §18): the sorted distinct
//! responding addresses and destinations of a [`Corpus`], and the rank of
//! every hop slot's address and every row's destination in them.
//!
//! The index is a function of the row sequence alone. It is built once per
//! corpus ([`Corpus::addr_index`]) and read by every consumer that needs the
//! observed address set: alias resolution takes the addresses, and phase 1
//! takes them as its interface table and reads the ranks as interface ids,
//! so no consumer walks the hop column for addresses again.

use crate::Corpus;
use std::ops::Range;

/// The rank of an unresponsive hop slot (`*`), and the destination rank of
/// a row with no responsive hop.
pub const NO_RANK: u32 = u32::MAX;

/// The address index of a [`Corpus`] (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AddrIndex {
    addrs: Vec<u32>,
    dsts: Vec<u32>,
    ranks: Vec<u32>,
    dst_ranks: Vec<u32>,
    responsive: usize,
}

impl AddrIndex {
    /// Every address seen as a responding hop, ascending and distinct.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// The destinations of the rows with a responsive hop, ascending and
    /// distinct.
    pub fn dsts(&self) -> &[u32] {
        &self.dsts
    }

    /// Per hop slot, aligned with [`Corpus::hops`] over every row: the rank
    /// of the slot's address in [`AddrIndex::addrs`], or [`NO_RANK`] for
    /// `*`.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// Per row: the rank of its destination in [`AddrIndex::dsts`], or
    /// [`NO_RANK`] when no hop of the row answered.
    pub fn dst_ranks(&self) -> &[u32] {
        &self.dst_ranks
    }

    /// The number of responsive hop slots (ranked slots) in the corpus.
    pub fn responsive_hops(&self) -> usize {
        self.responsive
    }

    /// Indexes `corpus` on `wp` in two pool passes over contiguous row
    /// ranges, each writing its own piece of the one rank column.
    ///
    /// 1. Each task walks its rows once. It numbers the addresses and
    ///    destinations it meets in first-seen order ([`LocalIds`]), writes
    ///    each slot's local id plus one (0 for `*`) into its piece of the
    ///    column and each row's into a vector of its own, and sorts its
    ///    distinct keys.
    /// 2. The tasks' sorted keys merge into the two global tables; then each
    ///    task maps its local ids to global ranks and rewrites its piece in
    ///    place. The calling thread appends the row columns in task order.
    ///
    /// Local ids depend on the task split, global ranks do not: a table is
    /// the sorted union of the tasks' key sets, so it is the corpus's
    /// distinct key set in ascending order at every pool size, and a rank
    /// is a key's position in it.
    pub(crate) fn build(corpus: &Corpus, wp: &pool::WorkerPool) -> AddrIndex {
        let _span = wp.recorder().span(obs::names::CORPUS_INDEX);
        let busy = obs::names::EXEC_POOL_BUSY_INDEX;
        let rows = corpus.len();
        let batch = wp.batch_size(rows);
        let row_bounds: Vec<usize> = (0..rows.div_ceil(batch))
            .map(|t| t * batch)
            .chain([rows])
            .collect();
        let bounds: Vec<usize> = row_bounds.iter().map(|&r| corpus.slots(0..r).end).collect();
        // Zeroed pages are mapped on first write, so the workers, not this
        // thread, touch the column's memory; pass 1 writes every slot.
        let mut ranks = vec![0u32; corpus.slots(0..rows).end];
        let parts = wp.run_split(busy, &mut ranks, &bounds, |t, piece| {
            Part::walk(corpus, row_bounds[t]..row_bounds[t + 1], piece)
        });
        let addrs = union(parts.iter().map(|p| &p.addrs.sorted[..]));
        let dsts = union(parts.iter().map(|p| &p.dsts.sorted[..]));
        let dst_ranks = wp.run_split(busy, &mut ranks, &bounds, |t, piece| {
            let part = &parts[t];
            let map = part.addrs.ranks_in(&addrs);
            piece.iter_mut().for_each(|r| *r = map[*r as usize]);
            let map = part.dsts.ranks_in(&dsts);
            part.dst_ranks
                .iter()
                .map(|&l| map[l as usize])
                .collect::<Vec<u32>>()
        });
        AddrIndex {
            addrs,
            dsts,
            ranks,
            dst_ranks: dst_ranks.concat(),
            responsive: parts.iter().map(|p| p.responsive).sum(),
        }
    }
}

/// The sorted union of sorted key runs (`key:32 | id:32` entries, whose
/// keys are distinct within a run), by pairwise merges.
fn union<'a>(runs: impl Iterator<Item = &'a [u64]>) -> Vec<u32> {
    let mut level: Vec<Vec<u32>> = runs
        .map(|run| run.iter().map(|&e| (e >> 32) as u32).collect())
        .collect();
    while level.len() > 1 {
        let mut runs = level.into_iter();
        let mut next = Vec::new();
        while let Some(a) = runs.next() {
            next.push(match runs.next() {
                Some(b) => merge(&a, &b),
                None => a,
            });
        }
        level = next;
    }
    level.pop().unwrap_or_default()
}

/// The sorted union of two ascending, distinct key vectors.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One pool task's pass-1 output over its row range.
struct Part {
    addrs: LocalIds,
    dsts: LocalIds,
    /// Per row, its destination's local id plus one, or 0 when no hop of
    /// the row answered.
    dst_ranks: Vec<u32>,
    responsive: usize,
}

impl Part {
    /// Walks `rows` of `corpus` once, writing into `piece`, the rows' share
    /// of the rank column, each hop slot's local id plus one, or 0 for `*`.
    /// Rows are cut straight from the offset and destination columns.
    fn walk(corpus: &Corpus, rows: Range<usize>, piece: &mut [u32]) -> Part {
        let (mut addrs, mut dsts) = (LocalIds::new(), LocalIds::new());
        let mut dst_ranks = Vec::with_capacity(rows.len());
        let mut responsive = 0;
        let hops = corpus.hops(rows.clone());
        let offsets = &corpus.offsets[rows.start..=rows.end];
        let base = offsets[0] as usize;
        for (w, &dst) in offsets.windows(2).zip(&corpus.dst[rows]) {
            let slots = w[0] as usize - base..w[1] as usize - base;
            let before = responsive;
            for (slot, rank) in hops[slots.clone()].iter().zip(&mut piece[slots]) {
                *rank = match slot {
                    Some(h) => {
                        responsive += 1;
                        addrs.id(h.addr) + 1
                    }
                    None => 0,
                };
            }
            dst_ranks.push(match responsive > before {
                true => dsts.id(dst) + 1,
                false => 0,
            });
        }
        addrs.seal();
        dsts.seal();
        Part {
            addrs,
            dsts,
            dst_ranks,
            responsive,
        }
    }
}

/// The empty slot of a [`LocalIds`] table. No entry equals it: an entry's
/// id half is below the number of keys seen, which is below `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// A pool task's numbering of the keys it meets, in first-seen order: an
/// open-addressing table with linear probing, kept at most a quarter full,
/// whose slots pack `key:32 | local id:32`. Probing hashes nothing but the
/// key (a fixed multiplier), and only a key's id is ever read back, never
/// the table's order, so the table cannot reach the output.
struct LocalIds {
    slots: Vec<u64>,
    /// `32 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Local id → key.
    keys: Vec<u32>,
    /// `key:32 | local id:32` per key, ascending (filled by
    /// [`LocalIds::seal`]).
    sorted: Vec<u64>,
}

impl LocalIds {
    const MIN_BITS: u32 = 10;

    fn new() -> LocalIds {
        LocalIds {
            slots: vec![EMPTY; 1 << Self::MIN_BITS],
            shift: 32 - Self::MIN_BITS,
            keys: Vec::new(),
            sorted: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// `key`'s local id, numbering it on first sight.
    #[inline]
    fn id(&mut self, key: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.slot(key);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                break;
            }
            if (s >> 32) as u32 == key {
                return s as u32;
            }
            i = (i + 1) & mask;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key);
        self.slots[i] = u64::from(key) << 32 | u64::from(id);
        if 4 * self.keys.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the table and re-inserts every key.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.shift -= 1;
        self.slots = vec![EMPTY; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for (id, &key) in self.keys.iter().enumerate() {
            let mut i = self.slot(key);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = u64::from(key) << 32 | id as u64;
        }
    }

    /// Frees the table and sorts the keys with their ids, once every key
    /// is numbered.
    fn seal(&mut self) {
        self.slots = Vec::new();
        self.sorted = (self.keys.iter().enumerate())
            .map(|(id, &key)| u64::from(key) << 32 | id as u64)
            .collect();
        self.sorted.sort_unstable();
        self.keys = Vec::new();
    }

    /// The map from a pass-1 value to a global rank: [`NO_RANK`] for 0
    /// (no key), and for local id `l + 1` the key's rank in `table`, a
    /// sorted superset of the keys. One merge walk of the sorted keys
    /// against the table fills it; with the no-key entry in the map, the
    /// rewrite of a rank column is one load per slot and no branch.
    fn ranks_in(&self, table: &[u32]) -> Vec<u32> {
        let mut map = vec![NO_RANK; self.sorted.len() + 1];
        let mut rank = 0;
        for &e in &self.sorted {
            while table[rank] < (e >> 32) as u32 {
                rank += 1;
            }
            map[e as u32 as usize + 1] = rank as u32;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hop, ReplyType, StopReason, Trace};
    use std::collections::BTreeSet;

    #[test]
    fn local_ids_number_in_first_seen_order_across_growth() {
        let mut ids = LocalIds::new();
        // Far more keys than the first table holds, with repeats.
        let keys: Vec<u32> = (0..20_000u32)
            .map(|i| i.wrapping_mul(7919) ^ 0xA5A5)
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ids.id(k), i as u32);
        }
        for (i, &k) in keys.iter().enumerate().rev() {
            assert_eq!(ids.id(k), i as u32);
        }
        assert!(ids.slots.len() >= 4 * keys.len());
        ids.seal();
        let table: Vec<u32> = keys
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let map = ids.ranks_in(&table);
        assert_eq!(map[0], NO_RANK);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(table[map[i + 1] as usize], k);
        }
    }

    #[test]
    fn index_is_the_same_at_every_pool_size() {
        // Rows sharing and repeating addresses over more keys than a first
        // table holds, with unresponsive rows and `*` slots.
        let corpus: Corpus = (0..600u32)
            .map(|t| Trace {
                monitor: format!("vp{}", t % 3),
                src: 1,
                dst: 0x0A00_0000 + t % 97,
                hops: (0..12u32)
                    .map(|h| {
                        (t % 11 != 0 && h % 5 != 3).then_some(Hop {
                            addr: 0x0B00_0000 + (t * 7 + h * 131) % 4000,
                            reply: ReplyType::TimeExceeded,
                        })
                    })
                    .collect(),
                stop: StopReason::GapLimit,
            })
            .collect();
        let addrs: BTreeSet<u32> = corpus
            .iter()
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        let base = AddrIndex::build(&corpus, &pool::WorkerPool::new(1));
        assert!(base.addrs().iter().eq(addrs.iter()));
        assert_eq!(base.ranks().len(), corpus.slots(0..corpus.len()).len());
        for threads in [2, 3, 8] {
            let index = AddrIndex::build(&corpus, &pool::WorkerPool::new(threads));
            assert_eq!(index, base, "threads={threads}");
        }
        let empty = AddrIndex::build(&Corpus::new(), &pool::WorkerPool::new(8));
        assert_eq!(empty, AddrIndex::default());
    }
}
