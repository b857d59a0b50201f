//! Sealing builders into a corpus (DESIGN.md §18). A [`CorpusBuilder`]
//! numbers the addresses and destinations it meets in first-seen order
//! ([`LocalIds`]); the seal merges the sorted keys the builders' rows use
//! into the corpus's two tables and rewrites each builder's local ids as
//! ranks in them. Local ids depend on how the rows were split between
//! builders, ranks do not: a table is the sorted union of the rows' keys,
//! the same at every split, and a rank is a key's position in it.

use crate::corpus::{addr_count, CODE_BITS, CODE_MASK};
use crate::{Corpus, CorpusBuilder, CorpusError};

/// The destination rank of a row with no responsive hop.
pub const NO_RANK: u32 = u32::MAX;

impl Corpus {
    /// Seals `parts` into one corpus, their rows in order (the order a
    /// pool's tasks returned them in), on `wp` under a `corpus.index` span:
    /// the corpus's one index build. Each part is freed once appended.
    pub fn concat(
        mut parts: Vec<CorpusBuilder>,
        wp: &pool::WorkerPool,
    ) -> Result<Corpus, CorpusError> {
        let _span = wp.recorder().span(obs::names::CORPUS_INDEX);
        let busy = obs::names::EXEC_POOL_BUSY_INDEX;
        let bounds: Vec<usize> = (0..=parts.len()).collect();
        // Each part sorts the keys its rows use and counts its responsive
        // slots.
        let responsive = wp.run_split(busy, &mut parts, &bounds, |_, part| {
            let part = &mut part[0];
            let (mut addrs, mut responsive) = (vec![false; part.addrs.len()], 0);
            for &s in part.rows.slots.iter().filter(|&&s| s & CODE_MASK != 0) {
                addrs[(s >> CODE_BITS) as usize] = true;
                responsive += 1;
            }
            let mut dsts = vec![false; part.dsts.len()];
            for &d in part.rows.dst_ranks.iter().filter(|&&d| d != NO_RANK) {
                dsts[d as usize] = true;
            }
            part.addrs.seal(&addrs);
            part.dsts.seal(&dsts);
            responsive
        });
        let addrs = union(parts.iter().map(|p| &p.addrs.sorted[..]));
        addr_count(addrs.len())?;
        let dsts = union(parts.iter().map(|p| &p.dsts.sorted[..]));
        wp.run_split(busy, &mut parts, &bounds, |_, part| {
            let part = &mut part[0];
            let map = part.addrs.ranks_in(&addrs);
            for s in &mut part.rows.slots {
                if *s & CODE_MASK != 0 {
                    *s = map[(*s >> CODE_BITS) as usize] << CODE_BITS | *s & CODE_MASK;
                }
            }
            let map = part.dsts.ranks_in(&dsts);
            for d in &mut part.rows.dst_ranks {
                *d = map.get(*d as usize).map_or(NO_RANK, |&r| r);
            }
        });
        let slots = parts.iter().map(|p| p.rows.slots.len()).sum::<usize>();
        let mut parts = parts.into_iter();
        let mut out = parts.next().unwrap_or_default();
        out.rows.slots.reserve(slots - out.rows.slots.len());
        for part in parts {
            out.append(part.rows)?;
        }
        (out.rows.addrs, out.rows.dsts) = (addrs, dsts);
        out.rows.responsive = responsive.iter().sum();
        Ok(out.rows)
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

/// The empty slot of a [`LocalIds`] table. No entry equals it: an entry's
/// id half is below the number of keys seen, which is below `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// A builder's numbering of the keys it meets, in first-seen order: an
/// open-addressing table with linear probing, kept at most a quarter full,
/// whose slots pack `key:32 | local id:32`. Probing hashes nothing but the
/// key (a fixed multiplier), and only a key's id is ever read back, never
/// the table's order, so the table cannot reach the output.
#[derive(Clone)]
pub(crate) struct LocalIds {
    /// The table; empty once frozen.
    slots: Vec<u64>,
    /// `32 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Local id → key.
    keys: Vec<u32>,
    /// `key:32 | local id:32` per used key, ascending (filled by
    /// [`LocalIds::seal`]).
    sorted: Vec<u64>,
}

impl Default for LocalIds {
    fn default() -> LocalIds {
        LocalIds {
            slots: vec![EMPTY; 1 << Self::MIN_BITS],
            shift: 32 - Self::MIN_BITS,
            keys: Vec::new(),
            sorted: Vec::new(),
        }
    }
}

impl LocalIds {
    const MIN_BITS: u32 = 10;

    /// The number of keys numbered so far.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// `key`'s local id, numbering it on first sight.
    #[inline]
    pub(crate) fn id(&mut self, key: u32) -> u32 {
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

    /// Frees the table once every key is numbered.
    pub(crate) fn freeze(&mut self) {
        self.slots = Vec::new();
    }

    /// Sorts the keys whose `used` entry is set with their ids, once every
    /// key is numbered.
    pub(crate) fn seal(&mut self, used: &[bool]) {
        self.freeze();
        self.sorted = (self.keys.iter().enumerate())
            .filter(|&(id, _)| used[id])
            .map(|(id, &key)| u64::from(key) << 32 | id as u64)
            .collect();
        self.sorted.sort_unstable();
    }

    /// The map from a local id to the key's rank in `table`, a sorted
    /// superset of the keys. One merge walk of the sorted keys against the
    /// table fills it, so the rewrite of a slot is one load.
    fn ranks_in(&self, table: &[u32]) -> Vec<u32> {
        let mut map = vec![NO_RANK; self.keys.len()];
        let mut rank = 0;
        for &e in &self.sorted {
            while table[rank] < (e >> 32) as u32 {
                rank += 1;
            }
            map[e as u32 as usize] = rank as u32;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, Hop, ReplyType, StopReason, Trace};
    use std::collections::BTreeSet;

    #[test]
    fn local_ids_number_in_first_seen_order_across_growth() {
        let mut ids = LocalIds::default();
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
        // Every third key is left unused: it gets no rank.
        let used: Vec<bool> = (0..keys.len()).map(|id| id % 3 != 0).collect();
        ids.seal(&used);
        assert!(ids.slots.is_empty() && ids.sorted.len() == keys.len() - keys.len().div_ceil(3));
        let table: Vec<u32> = (keys.iter().zip(&used))
            .filter_map(|(&k, &u)| u.then_some(k))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let map = ids.ranks_in(&table);
        for (i, &k) in keys.iter().enumerate() {
            match used[i] {
                true => assert_eq!(table[map[i] as usize], k),
                false => assert_eq!(map[i], NO_RANK),
            }
        }
    }

    /// Rows sharing and repeating addresses over more keys than a first
    /// table holds, with unresponsive rows, `*` slots and all three reply
    /// types.
    fn traces() -> Vec<Trace> {
        let replies = [
            ReplyType::TimeExceeded,
            ReplyType::EchoReply,
            ReplyType::DestUnreachable,
        ];
        (0..600u32)
            .map(|t| Trace {
                monitor: format!("vp{}", t % 3),
                src: 1,
                dst: 0x0A00_0000 + t % 97,
                hops: (0..12u32)
                    .map(|h| {
                        (t % 11 != 0 && h % 5 != 3).then_some(Hop {
                            addr: 0x0B00_0000 + (t * 7 + h * 131) % 4000,
                            reply: replies[((t + h) % 3) as usize],
                        })
                    })
                    .collect(),
                stop: StopReason::GapLimit,
            })
            .collect()
    }

    /// The corpus sealed from `traces` cut into `threads` builders.
    fn sealed(traces: &[Trace], threads: usize) -> Corpus {
        let wp = pool::WorkerPool::new(threads);
        let batch = wp.batch_size(traces.len());
        let parts = traces
            .chunks(batch.max(1))
            .map(|chunk| {
                let mut b = CorpusBuilder::new();
                chunk.iter().for_each(|t| b.push_trace(t).unwrap());
                b
            })
            .collect();
        Corpus::concat(parts, &wp).unwrap()
    }

    #[test]
    fn index_is_the_same_at_every_pool_size() {
        let traces = traces();
        let addrs: BTreeSet<u32> = (traces.iter())
            .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
            .collect();
        let base = sealed(&traces, 1);
        assert!(base.addrs().iter().eq(addrs.iter()));
        assert_eq!(base.slots(0..base.len()).len(), 600 * 12);
        for (row, t) in base.iter().zip(&traces) {
            assert_eq!(row.to_owned(), *t);
            for (&s, h) in row.slots.iter().zip(&t.hops) {
                let rank =
                    h.map(|h| (base.addrs().binary_search(&h.addr).unwrap() as u32, h.reply));
                assert_eq!(decode(s), rank);
            }
        }
        let collected: Corpus = traces.iter().cloned().collect();
        for threads in [2, 3, 8] {
            let c = sealed(&traces, threads);
            assert_eq!(
                c.slots(0..c.len()),
                base.slots(0..base.len()),
                "threads={threads}"
            );
            assert_eq!(c.addrs(), base.addrs(), "threads={threads}");
            assert_eq!(c.dsts(), base.dsts(), "threads={threads}");
            assert_eq!(c.dst_ranks(), base.dst_ranks(), "threads={threads}");
            assert_eq!(c.responsive_hops(), base.responsive_hops());
            assert_eq!(c, base);
        }
        assert_eq!(collected.slots(0..600), base.slots(0..600));
        let mut jsonl = Vec::new();
        crate::io::write_jsonl(&mut jsonl, &base).unwrap();
        let read = crate::io::read_jsonl(&jsonl[..]).unwrap();
        assert_eq!(read.slots(0..600), base.slots(0..600));
        assert_eq!(read.dst_ranks(), base.dst_ranks());
        let empty = Corpus::concat(Vec::new(), &pool::WorkerPool::new(8)).unwrap();
        assert_eq!(empty, Corpus::new());
        assert!(empty.addrs().is_empty() && empty.dst_ranks().is_empty());
    }
}
