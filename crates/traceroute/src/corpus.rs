//! The columnar trace corpus (DESIGN.md §18).
//!
//! A campaign's traces are stored column-wise: per-row `monitor`, `src`,
//! `dst` and `stop` columns, and one flat hop column that every row owns a
//! contiguous slice of, delimited by a `u32` offset column. Monitor names
//! are interned into a table and each row carries a `u16` id into it. A
//! hop slot is an `Option<Hop>`: eight bytes, with `*` encoded in the
//! reply-type niche. Rows are read through the borrowed [`TraceRef`] view,
//! so a corpus of a million traces is a handful of allocations, not two
//! per trace.
//!
//! Beside the rows a corpus keeps its [`AddrIndex`], derived from them and
//! built on first use ([`Corpus::addr_index`]).

use crate::{AddrIndex, Hop, StopReason, Trace, TraceRef};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// The most hop slots a row may carry: [`TraceRef::responsive`] numbers
/// hops with a `u8` TTL, so a longer trace would wrap it.
pub const MAX_HOPS: usize = u8::MAX as usize;

/// The most distinct monitor names a corpus can intern (ids are `u16`).
pub const MAX_MONITORS: usize = u16::MAX as usize;

/// Why a row could not be added to a [`Corpus`]: one of its width limits
/// would be exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// The row has more than [`MAX_HOPS`] hop slots.
    TooManyHops,
    /// The row's monitor would be the table's 65,536th distinct name.
    TooManyMonitors,
    /// The hop column would outgrow its `u32` offsets.
    HopColumnFull,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::TooManyHops => write!(f, "more than {MAX_HOPS} hops"),
            CorpusError::TooManyMonitors => write!(f, "more than {MAX_MONITORS} monitors"),
            CorpusError::HopColumnFull => write!(f, "more than {} hop slots", u32::MAX),
        }
    }
}

impl std::error::Error for CorpusError {}

/// A traceroute corpus, stored column-wise (see the module docs).
///
/// Equality compares row by row, exactly as `Vec<Trace>` equality would:
/// two corpora whose monitor tables list the same names in a different
/// order are equal when their rows are. The address index takes no part in
/// equality, `Debug` or the JSONL format.
#[derive(Clone)]
pub struct Corpus {
    /// Interned monitor names; a row's monitor id indexes this.
    names: Vec<String>,
    /// Name → id, for interning.
    ids: BTreeMap<String, u16>,
    monitor: Vec<u16>,
    src: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    stop: Vec<StopReason>,
    /// Row `i`'s hops are `hops[offsets[i]..offsets[i + 1]]`; one longer
    /// than the row columns.
    pub(crate) offsets: Vec<u32>,
    /// The flat hop column. Slots past the last offset belong to a row
    /// still being written (see [`Corpus::commit_row`]).
    pub(crate) hops: Vec<Option<Hop>>,
    /// The address index of the rows, once built. Every `&mut self` method
    /// takes it, so it never outlives the rows it was built from; slots of
    /// a row still being written belong to no row and leave it valid.
    index: OnceLock<AddrIndex>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus {
            names: Vec::new(),
            ids: BTreeMap::new(),
            monitor: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            stop: Vec::new(),
            offsets: vec![0],
            hops: Vec::new(),
            index: OnceLock::new(),
        }
    }

    /// An empty corpus whose monitor table starts with `names` (repeats
    /// are interned once): chunks cloned from it share one table, so
    /// appending them remaps no monitor id.
    pub fn with_monitors<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Corpus, CorpusError> {
        let mut out = Corpus::new();
        for name in names {
            out.intern(name)?;
        }
        Ok(out)
    }

    /// Concatenates `parts` in order — the order a pool's tasks returned
    /// them in, so the result is the same for any pool size — freeing each
    /// part as soon as it is copied.
    pub fn concat(parts: Vec<Corpus>) -> Result<Corpus, CorpusError> {
        let rows = parts.iter().map(Corpus::len).sum();
        let hops = parts.iter().map(|p| p.hops.len()).sum();
        let mut out = Corpus::new();
        out.reserve(rows, hops);
        for part in parts {
            out.append(&part)?;
        }
        Ok(out)
    }

    /// The address index of the corpus, built on `wp` by the first caller
    /// (under a `corpus.index` span on the pool's recorder) and shared by
    /// every later one until the rows change.
    pub fn addr_index(&self, wp: &pool::WorkerPool) -> &AddrIndex {
        self.index.get_or_init(|| AddrIndex::build(self, wp))
    }

    /// Removes every row and monitor, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.index.take();
        self.names.clear();
        self.ids.clear();
        self.monitor.clear();
        self.src.clear();
        self.dst.clear();
        self.stop.clear();
        self.offsets.truncate(1);
        self.hops.clear();
    }

    /// Reserves room for `rows` more rows holding `hops` more hop slots.
    pub fn reserve(&mut self, rows: usize, hops: usize) {
        self.index.take();
        self.monitor.reserve(rows);
        self.src.reserve(rows);
        self.dst.reserve(rows);
        self.stop.reserve(rows);
        self.offsets.reserve(rows);
        self.hops.reserve(hops);
    }

    /// Number of rows (traces).
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the corpus has no rows.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn row(&self, i: usize) -> TraceRef<'_> {
        TraceRef {
            monitor: &self.names[self.monitor[i] as usize],
            src: self.src[i],
            dst: self.dst[i],
            hops: &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            stop: self.stop[i],
        }
    }

    /// Every row, in order.
    pub fn iter(&self) -> Rows<'_> {
        self.rows(0..self.len())
    }

    /// The rows in `range`, in order.
    pub fn rows(&self, range: Range<usize>) -> Rows<'_> {
        assert!(range.end <= self.len(), "row range out of bounds");
        Rows {
            corpus: self,
            range,
        }
    }

    /// The hop slots of the rows in `range`: one contiguous slice of the
    /// hop column, row after row.
    pub fn hops(&self, range: Range<usize>) -> &[Option<Hop>] {
        &self.hops[self.slots(range)]
    }

    /// Where the hop slots of the rows in `range` lie in the hop column,
    /// and so in [`AddrIndex::ranks`].
    pub fn slots(&self, range: Range<usize>) -> Range<usize> {
        self.offsets[range.start] as usize..self.offsets[range.end] as usize
    }

    /// Appends a row.
    pub fn push(&mut self, row: TraceRef<'_>) -> Result<(), CorpusError> {
        self.index.take();
        if row.hops.len() > MAX_HOPS {
            return Err(CorpusError::TooManyHops);
        }
        let monitor = self.intern(row.monitor)?;
        self.hops.extend_from_slice(row.hops);
        self.commit_row(monitor, row.src, row.dst, row.stop)
    }

    /// Appends every row of `other`, mapping its monitor ids into this
    /// corpus's table.
    fn append(&mut self, other: &Corpus) -> Result<(), CorpusError> {
        self.index.take();
        let base = self.hops.len();
        offset(base + other.hops.len())?;
        let remap = other
            .names
            .iter()
            .map(|name| self.intern(name))
            .collect::<Result<Vec<u16>, _>>()?;
        self.hops.extend_from_slice(&other.hops);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| o + base as u32));
        self.monitor
            .extend(other.monitor.iter().map(|&m| remap[m as usize]));
        self.src.extend_from_slice(&other.src);
        self.dst.extend_from_slice(&other.dst);
        self.stop.extend_from_slice(&other.stop);
        Ok(())
    }

    /// The id of monitor `name`, interning it on first sight. Rows arrive
    /// grouped by monitor, so the previous row's name is checked first.
    pub(crate) fn intern(&mut self, name: &str) -> Result<u16, CorpusError> {
        self.index.take();
        if let Some(&last) = self.monitor.last() {
            if self.names[last as usize] == name {
                return Ok(last);
            }
        }
        if let Some(&id) = self.ids.get(name) {
            return Ok(id);
        }
        if self.names.len() == MAX_MONITORS {
            return Err(CorpusError::TooManyMonitors);
        }
        let id = self.names.len() as u16;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Closes the hop slots written past the last row's end as a new row.
    /// On error nothing is added and the pending slots are discarded.
    pub(crate) fn commit_row(
        &mut self,
        monitor: u16,
        src: u32,
        dst: u32,
        stop: StopReason,
    ) -> Result<(), CorpusError> {
        self.index.take();
        let start = self.pending_start();
        let checked = if self.hops.len() - start > MAX_HOPS {
            Err(CorpusError::TooManyHops)
        } else {
            offset(self.hops.len())
        };
        let end = match checked {
            Ok(end) => end,
            Err(e) => {
                self.hops.truncate(start);
                return Err(e);
            }
        };
        self.offsets.push(end);
        self.monitor.push(monitor);
        self.src.push(src);
        self.dst.push(dst);
        self.stop.push(stop);
        Ok(())
    }

    /// Where the hop slots of a row still being written begin.
    pub(crate) fn pending_start(&self) -> usize {
        *self.offsets.last().expect("offsets start at 0") as usize
    }
}

/// A hop-column length as a `u32` offset.
fn offset(len: usize) -> Result<u32, CorpusError> {
    u32::try_from(len).map_err(|_| CorpusError::HopColumnFull)
}

impl Default for Corpus {
    fn default() -> Corpus {
        Corpus::new()
    }
}

impl PartialEq for Corpus {
    fn eq(&self, other: &Corpus) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Corpus {}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Extend<Trace> for Corpus {
    /// # Panics
    ///
    /// If a trace exceeds a width limit ([`CorpusError`]).
    fn extend<I: IntoIterator<Item = Trace>>(&mut self, iter: I) {
        for t in iter {
            self.push(t.view()).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

impl FromIterator<Trace> for Corpus {
    /// # Panics
    ///
    /// If a trace exceeds a width limit ([`CorpusError`]).
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Corpus {
        let mut out = Corpus::new();
        out.extend(iter);
        out
    }
}

impl<'a> IntoIterator for &'a Corpus {
    type Item = TraceRef<'a>;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// An iterator over a range of a [`Corpus`]'s rows.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    corpus: &'a Corpus,
    range: Range<usize>,
}

impl<'a> Iterator for Rows<'a> {
    type Item = TraceRef<'a>;

    fn next(&mut self) -> Option<TraceRef<'a>> {
        self.range.next().map(|i| self.corpus.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplyType;

    fn trace(monitor: &str, dst: u32, hops: &[Option<u32>]) -> Trace {
        Trace {
            monitor: monitor.into(),
            src: 1,
            dst,
            hops: hops
                .iter()
                .map(|h| {
                    h.map(|addr| Hop {
                        addr,
                        reply: ReplyType::TimeExceeded,
                    })
                })
                .collect(),
            stop: StopReason::GapLimit,
        }
    }

    #[test]
    fn hop_slot_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<Hop>>(), 8);
    }

    #[test]
    fn rows_and_hop_ranges() {
        let traces = [
            trace("a", 10, &[Some(1), None, Some(2)]),
            trace("b", 20, &[]),
            trace("a", 30, &[Some(3)]),
        ];
        let c: Corpus = traces.iter().cloned().collect();
        assert_eq!(c.len(), 3);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(c.row(i).to_owned(), *t);
        }
        assert_eq!(c.hops(0..3).len(), 4);
        assert_eq!(c.hops(1..3), &traces[2].hops[..]);
        assert_eq!(c.rows(1..3).map(|r| r.dst).collect::<Vec<_>>(), [20, 30]);
    }

    #[test]
    fn too_many_hops_is_rejected_and_leaves_no_trace() {
        let mut c = Corpus::new();
        let long = trace("a", 1, &vec![None; MAX_HOPS + 1]);
        assert_eq!(c.push(long.view()), Err(CorpusError::TooManyHops));
        assert!(c.is_empty());
        assert!(c.hops.is_empty());
        let ok = trace("a", 1, &vec![Some(7); MAX_HOPS]);
        c.push(ok.view()).unwrap();
        assert_eq!(c.row(0).last_hop().map(|(ttl, _)| ttl), Some(255));
    }

    #[test]
    fn monitor_table_is_bounded() {
        let mut c = Corpus::new();
        for i in 0..MAX_MONITORS {
            c.intern(&i.to_string()).unwrap();
        }
        assert_eq!(c.intern("one more"), Err(CorpusError::TooManyMonitors));
        assert_eq!(c.intern("0"), Ok(0));
        assert_eq!(
            CorpusError::TooManyMonitors.to_string(),
            "more than 65535 monitors"
        );
    }

    #[test]
    fn every_mut_method_drops_the_index() {
        let t = trace("a", 10, &[Some(1), None, Some(2)]);
        let wp = pool::WorkerPool::new(1);
        let fresh = || {
            let c: Corpus = [t.clone()].into_iter().collect();
            c.addr_index(&wp);
            assert!(c.index.get().is_some());
            c
        };
        type Mutation = fn(&mut Corpus, &Trace);
        let mutations: [(&str, Mutation); 7] = [
            ("clear", |c, _| c.clear()),
            ("reserve", |c, _| c.reserve(1, 1)),
            ("push", |c, t| c.push(t.view()).unwrap()),
            ("extend", |c, t| c.extend([t.clone()])),
            ("append", |c, _| c.append(&Corpus::new()).unwrap()),
            ("intern", |c, _| {
                c.intern("b").unwrap();
            }),
            ("commit_row", |c, _| {
                c.hops.push(None);
                c.commit_row(0, 1, 2, StopReason::GapLimit).unwrap();
            }),
        ];
        for (name, mutate) in mutations {
            let mut c = fresh();
            mutate(&mut c, &t);
            assert!(c.index.get().is_none(), "{name} kept the index");
        }
        // A clone carries the index along; equality ignores it.
        let c = fresh();
        let copy = c.clone();
        assert_eq!(copy.index.get(), c.index.get());
        assert_eq!(copy, [t].into_iter().collect::<Corpus>());
    }

    #[test]
    fn hop_offsets_are_bounded() {
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            offset(u32::MAX as usize + 1),
            Err(CorpusError::HopColumnFull)
        );
    }
}
