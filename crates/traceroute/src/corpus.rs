//! The columnar trace corpus (DESIGN.md §18).
//!
//! Traces are stored column-wise: per-row `monitor` (a `u16` id into an
//! interned name table), `src`, `dst` and `stop` columns, and one flat hop
//! column that every row owns a slice of, delimited by `u32` offsets. Rows
//! are read through the borrowed [`TraceRef`] view.
//!
//! A hop slot is one `u32`: a 30-bit rank above a 2-bit code, `*` or a
//! reply type ([`decode`]). A [`Corpus`] is indexed by construction: it
//! holds the sorted address table the ranks index, its destination table,
//! each row's destination rank and the responsive count, and no method
//! changes its rows. Rows go into a [`CorpusBuilder`], which numbers
//! addresses as they arrive, and [`Corpus::concat`] seals builders.

use crate::index::{LocalIds, NO_RANK};
use crate::{Hop, ReplyType, StopReason, Trace, TraceRef};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// The most hop slots a row may carry: [`TraceRef::responsive`] numbers
/// hops with a `u8` TTL, so a longer trace would wrap it.
pub const MAX_HOPS: usize = u8::MAX as usize;

/// The most distinct monitor names a corpus can intern (ids are `u16`).
pub const MAX_MONITORS: usize = u16::MAX as usize;

/// The most distinct responding addresses a corpus can rank.
pub const MAX_ADDRS: usize = 1 << (u32::BITS - CODE_BITS);

/// The low bits of a hop slot, which hold its code ([`decode`]).
pub(crate) const CODE_BITS: u32 = 2;
pub(crate) const CODE_MASK: u32 = (1 << CODE_BITS) - 1;

/// A hop slot's rank and reply type, or `None` for `*`.
#[inline]
pub fn decode(slot: u32) -> Option<(u32, ReplyType)> {
    let reply = match slot & CODE_MASK {
        0 => return None,
        1 => ReplyType::TimeExceeded,
        2 => ReplyType::EchoReply,
        _ => ReplyType::DestUnreachable,
    };
    Some((slot >> CODE_BITS, reply))
}

/// Why a row could not be added to a corpus: one of its width limits
/// would be exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusError {
    /// The row has more than [`MAX_HOPS`] hop slots.
    TooManyHops,
    /// The row's monitor would be the table's 65,536th distinct name.
    TooManyMonitors,
    /// The hop column would outgrow its `u32` offsets.
    HopColumnFull,
    /// The corpus would hold more than [`MAX_ADDRS`] distinct responding
    /// addresses.
    TooManyAddresses,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::TooManyHops => write!(f, "more than {MAX_HOPS} hops"),
            CorpusError::TooManyMonitors => write!(f, "more than {MAX_MONITORS} monitors"),
            CorpusError::HopColumnFull => write!(f, "more than {} hop slots", u32::MAX),
            CorpusError::TooManyAddresses => write!(f, "more than {MAX_ADDRS} addresses"),
        }
    }
}

impl std::error::Error for CorpusError {}

/// A traceroute corpus, stored column-wise and indexed (see the module
/// docs).
///
/// Equality compares row by row, exactly as `Vec<Trace>` equality would:
/// two corpora whose monitor tables list the same names in a different
/// order are equal when their rows are.
#[derive(Clone, Default)]
pub struct Corpus {
    /// Interned monitor names; a row's monitor id indexes this.
    names: Vec<String>,
    monitor: Vec<u16>,
    src: Vec<u32>,
    dst: Vec<u32>,
    stop: Vec<StopReason>,
    /// Where each row's slots end in the hop column.
    ends: Vec<u32>,
    /// The flat hop column.
    pub(crate) slots: Vec<u32>,
    pub(crate) addrs: Vec<u32>,
    pub(crate) dsts: Vec<u32>,
    /// Per row, its destination's rank in `dsts` (its local id, in a
    /// builder), or [`NO_RANK`] when no hop of the row answered.
    pub(crate) dst_ranks: Vec<u32>,
    pub(crate) responsive: usize,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
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
            stop: self.stop[i],
            slots: self.slots(i..i + 1),
            addrs: &self.addrs,
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
    /// hop column, row after row ([`decode`] reads one).
    pub fn slots(&self, range: Range<usize>) -> &[u32] {
        let end = |row: usize| row.checked_sub(1).map_or(0, |r| self.ends[r] as usize);
        &self.slots[end(range.start)..end(range.end)]
    }

    /// Every address seen as a responding hop, ascending and distinct: a
    /// slot's rank indexes this.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// The destinations of the rows with a responsive hop, ascending and
    /// distinct.
    pub fn dsts(&self) -> &[u32] {
        &self.dsts
    }

    /// Per row: the rank of its destination in [`Corpus::dsts`], or
    /// [`NO_RANK`] when no hop of the row answered.
    pub fn dst_ranks(&self) -> &[u32] {
        &self.dst_ranks
    }

    /// The number of responsive hop slots in the corpus.
    pub fn responsive_hops(&self) -> usize {
        self.responsive
    }

    /// Appends row `i` of `from`, whose slots and destination ranks number
    /// the same tables, as a row of monitor id `monitor`.
    fn copy_row(&mut self, from: &Corpus, i: usize, monitor: u16) {
        self.slots.extend_from_slice(from.slots(i..i + 1));
        self.ends.push(self.slots.len() as u32);
        self.monitor.push(monitor);
        self.src.push(from.src[i]);
        self.dst.push(from.dst[i]);
        self.stop.push(from.stop[i]);
        self.dst_ranks.push(from.dst_ranks[i]);
    }
}

/// A hop-column length as a `u32` offset.
fn offset(len: usize) -> Result<u32, CorpusError> {
    u32::try_from(len).map_err(|_| CorpusError::HopColumnFull)
}

/// Whether `n` distinct addresses fit a corpus's ranks.
pub(crate) fn addr_count(n: usize) -> Result<(), CorpusError> {
    match n <= MAX_ADDRS {
        true => Ok(()),
        false => Err(CorpusError::TooManyAddresses),
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

impl FromIterator<Trace> for Corpus {
    /// # Panics
    ///
    /// If a trace exceeds a width limit ([`CorpusError`]).
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Corpus {
        let mut out = CorpusBuilder::new();
        for t in iter {
            out.push_trace(&t).unwrap_or_else(|e| panic!("{e}"));
        }
        out.finish().unwrap_or_else(|e| panic!("{e}"))
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

/// Rows on their way into a [`Corpus`]: the same columns, with each slot
/// holding its address's local id, numbered in first-seen order as rows
/// arrive. [`CorpusBuilder::finish`] or [`Corpus::concat`] seals it.
#[derive(Clone, Default)]
pub struct CorpusBuilder {
    /// The rows; their destination ranks are local ids.
    pub(crate) rows: Corpus,
    /// Name → id, for interning.
    pub(crate) ids: BTreeMap<String, u16>,
    pub(crate) addrs: LocalIds,
    pub(crate) dsts: LocalIds,
}

impl CorpusBuilder {
    /// An empty builder.
    pub fn new() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// An empty builder whose monitor table starts with `names` (repeats
    /// are interned once): builders cloned from it share one table, so
    /// sealing them together remaps no monitor id.
    pub fn with_monitors<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<CorpusBuilder, CorpusError> {
        let mut out = CorpusBuilder::new();
        for name in names {
            out.intern(name)?;
        }
        Ok(out)
    }

    /// A builder that numbers addresses as this one does, holding the rows
    /// `picks` names in order: `Ok(i)` copies row `i` of this builder as it
    /// is, `Err(row)` numbers a row of any corpus. Addresses no row uses
    /// stay numbered; the seal keeps only those the rows use.
    pub fn select<'a>(
        &self,
        picks: impl IntoIterator<Item = Result<usize, TraceRef<'a>>>,
    ) -> Result<CorpusBuilder, CorpusError> {
        let mut out = CorpusBuilder {
            rows: Corpus {
                names: self.rows.names.clone(),
                ..Corpus::new()
            },
            ids: self.ids.clone(),
            addrs: self.addrs.clone(),
            dsts: self.dsts.clone(),
        };
        for pick in picks {
            match pick {
                Ok(i) => {
                    offset(out.rows.slots.len() + self.rows.slots(i..i + 1).len())?;
                    out.rows.copy_row(&self.rows, i, self.rows.monitor[i]);
                }
                Err(row) => out.push(row)?,
            }
        }
        Ok(out)
    }

    /// Row `i`, its slots decoded through this builder's own numbering.
    pub(crate) fn row(&self, i: usize) -> TraceRef<'_> {
        TraceRef {
            addrs: self.addrs.keys(),
            ..self.rows.row(i)
        }
    }

    /// The rows with a responsive hop, selected ([`CorpusBuilder::select`]).
    pub fn responsive_rows(&self) -> CorpusBuilder {
        let rows = (self.rows.dst_ranks.iter().enumerate()).filter(|&(_, &d)| d != NO_RANK);
        (self.select(rows.map(|(i, _)| Ok(i)))).expect("a subset of the rows fits")
    }

    /// Appends a row of any corpus.
    pub fn push(&mut self, row: TraceRef<'_>) -> Result<(), CorpusError> {
        let monitor = self.intern(row.monitor)?;
        self.commit(monitor, row.src, row.dst, row.stop, row.hops())
    }

    /// Appends an owned trace.
    pub fn push_trace(&mut self, t: &Trace) -> Result<(), CorpusError> {
        let monitor = self.intern(&t.monitor)?;
        self.commit(monitor, t.src, t.dst, t.stop, t.hops.iter().copied())
    }

    /// Seals the rows into a corpus, on the calling thread.
    pub fn finish(self) -> Result<Corpus, CorpusError> {
        Corpus::concat(vec![self], &pool::WorkerPool::new(1))
    }

    /// The id of monitor `name`, interning it on first sight. Rows arrive
    /// grouped by monitor, so the previous row's name is checked first.
    pub(crate) fn intern(&mut self, name: &str) -> Result<u16, CorpusError> {
        let names = &mut self.rows.names;
        if let Some(&last) = self.rows.monitor.last() {
            if names[last as usize] == name {
                return Ok(last);
            }
        }
        if let Some(&id) = self.ids.get(name) {
            return Ok(id);
        }
        if names.len() == MAX_MONITORS {
            return Err(CorpusError::TooManyMonitors);
        }
        names.push(name.to_owned());
        self.ids.insert(name.to_owned(), names.len() as u16 - 1);
        Ok(names.len() as u16 - 1)
    }

    /// Appends every row of `other`, whose slots and destination ranks
    /// number the same tables, mapping its monitor ids into this table.
    pub(crate) fn append(&mut self, other: Corpus) -> Result<(), CorpusError> {
        offset(self.rows.slots.len() + other.slots.len())?;
        let remap = (other.names.iter())
            .map(|name| self.intern(name))
            .collect::<Result<Vec<u16>, _>>()?;
        for i in 0..other.len() {
            self.rows
                .copy_row(&other, i, remap[other.monitor[i] as usize]);
        }
        Ok(())
    }

    /// Appends a row of monitor id `monitor` with slots `hops`, numbering
    /// its addresses and destination. On error nothing is added.
    pub(crate) fn commit<I>(
        &mut self,
        monitor: u16,
        src: u32,
        dst: u32,
        stop: StopReason,
        hops: I,
    ) -> Result<(), CorpusError>
    where
        I: ExactSizeIterator<Item = Option<Hop>>,
    {
        if hops.len() > MAX_HOPS {
            return Err(CorpusError::TooManyHops);
        }
        let end = offset(self.rows.slots.len() + hops.len())?;
        let rows = &mut self.rows;
        let (start, mut answered) = (rows.slots.len(), false);
        for h in hops {
            rows.slots.push(match h {
                Some(h) => {
                    answered = true;
                    self.addrs.id(h.addr) << CODE_BITS | (h.reply as u32 + 1)
                }
                None => 0,
            });
        }
        // A row that crosses the width limit is dropped. The addresses it
        // numbered stay, unused, so every later row fails too.
        if let Err(e) = addr_count(self.addrs.len()) {
            rows.slots.truncate(start);
            return Err(e);
        }
        rows.dst_ranks.push(match answered {
            true => self.dsts.id(dst),
            false => NO_RANK,
        });
        rows.ends.push(end);
        rows.monitor.push(monitor);
        rows.src.push(src);
        rows.dst.push(dst);
        rows.stop.push(stop);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn hop_slot_is_four_bytes() {
        let c: Corpus = [trace("a", 10, &[Some(1), None])].into_iter().collect();
        assert_eq!(std::mem::size_of_val(c.slots(0..1)), 2 * 4);
        for reply in [
            ReplyType::TimeExceeded,
            ReplyType::EchoReply,
            ReplyType::DestUnreachable,
        ] {
            let top = MAX_ADDRS as u32 - 1;
            assert_eq!(
                decode(top << CODE_BITS | (reply as u32 + 1)),
                Some((top, reply))
            );
        }
        assert_eq!(decode(0), None);
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
        assert_eq!(c.slots(0..3).len(), 4);
        assert_eq!(c.addrs(), [1, 2, 3]);
        assert_eq!(c.dsts(), [10, 30]);
        assert_eq!(c.dst_ranks(), [0, NO_RANK, 1]);
        assert_eq!(c.responsive_hops(), 3);
        assert!(c.row(1).hops().eq(traces[1].hops.iter().copied()));
        assert_eq!(c.rows(1..3).map(|r| r.dst).collect::<Vec<_>>(), [20, 30]);
    }

    #[test]
    fn too_many_hops_is_rejected_and_leaves_no_trace() {
        let mut c = CorpusBuilder::new();
        let long = trace("a", 1, &vec![Some(9); MAX_HOPS + 1]);
        assert_eq!(c.push_trace(&long), Err(CorpusError::TooManyHops));
        assert!(c.rows.is_empty());
        assert!(c.rows.slots.is_empty() && c.addrs.len() == 0);
        let ok = trace("a", 1, &vec![Some(7); MAX_HOPS]);
        c.push_trace(&ok).unwrap();
        let c = c.finish().unwrap();
        assert_eq!(c.row(0).last_hop().map(|(ttl, _)| ttl), Some(255));
        assert_eq!(c.addrs(), [7]);
    }

    #[test]
    fn monitor_table_is_bounded() {
        let mut c = CorpusBuilder::new();
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
    fn hop_offsets_are_bounded() {
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            offset(u32::MAX as usize + 1),
            Err(CorpusError::HopColumnFull)
        );
    }

    #[test]
    fn select_copies_kept_rows_and_the_seal_drops_unused_addresses() {
        let traces = [
            trace("a", 10, &[Some(5), None, Some(6)]),
            trace("b", 20, &[None, None]),
            trace("a", 30, &[Some(6), Some(4)]),
            trace("c", 40, &[Some(8)]),
        ];
        let mut b = CorpusBuilder::new();
        for t in &traces {
            b.push_trace(t).unwrap();
        }
        let kept = b.responsive_rows();
        assert_eq!(kept.rows.slots, [1, 0, 5, 5, 9, 13]);
        let want: Corpus = [0, 2, 3].map(|i| traces[i].clone()).into_iter().collect();
        assert_eq!(kept.finish().unwrap().slots(0..3), want.slots(0..3));
        // Row 3 is dropped, so address 8 and destination 40 are unused;
        // row 2 is kept, row 0 comes back as another corpus's row.
        let fresh: Corpus = [traces[0].clone()].into_iter().collect();
        let b = b.select([Ok(2), Ok(1), Err(fresh.row(0))]).unwrap();
        assert_eq!(b.rows.slots, [5, 9, 0, 0, 1, 0, 5]);
        let sealed = b.finish().unwrap();
        let want: Corpus = [2, 1, 0].map(|i| traces[i].clone()).into_iter().collect();
        assert_eq!(sealed, want);
        assert_eq!(sealed.slots(0..3), want.slots(0..3));
        assert_eq!(
            (sealed.addrs(), sealed.dsts()),
            (&[4, 5, 6][..], &[10, 30][..])
        );
        assert_eq!(sealed.dst_ranks(), want.dst_ranks());
        assert_eq!(sealed.responsive_hops(), 4);
    }

    #[test]
    fn address_count_is_bounded() {
        assert_eq!(addr_count(0), Ok(()));
        assert_eq!(addr_count(MAX_ADDRS), Ok(()));
        assert_eq!(
            addr_count(MAX_ADDRS + 1),
            Err(CorpusError::TooManyAddresses)
        );
        assert_eq!(
            CorpusError::TooManyAddresses.to_string(),
            "more than 1073741824 addresses"
        );
    }
}
