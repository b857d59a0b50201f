//! Many small sorted sets in one flat column.

use crate::Asn;
use std::ops::Index;

/// Sorted sets in one flat column: set `i` is `values[off[i]..off[i + 1]]`,
/// ascending and without repeats. A set is read as a slice, so a column of
/// a million sets is two allocations, not a million trees.
///
/// Values [`push_to`](SetColumn::push_to) appended past the last closed set
/// form the *open* set, which [`close_to`](SetColumn::close_to) closes.
/// Builders append in set order: [`push`](SetColumn::push) for a whole
/// set, [`push_with`](SetColumn::push_with) and
/// [`push_union`](SetColumn::push_union) for one built in place,
/// [`push_to`](SetColumn::push_to) value by value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetColumn<T> {
    values: Vec<T>,
    off: Vec<u32>,
}

/// Sorted AS sets in one column.
pub type AsSets = SetColumn<Asn>;

impl<T: Copy + Ord> Default for SetColumn<T> {
    fn default() -> Self {
        SetColumn::new()
    }
}

impl<T: Copy + Ord> SetColumn<T> {
    /// No sets.
    pub fn new() -> SetColumn<T> {
        SetColumn {
            values: Vec::new(),
            off: vec![0],
        }
    }

    /// Number of closed sets.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether there are no closed sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set `i`.
    pub fn get(&self, i: usize) -> &[T] {
        &self.values[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Appends a set (ascending, without repeats).
    pub fn push(&mut self, set: &[T]) {
        self.values.extend_from_slice(set);
        self.close();
    }

    /// Appends a set built in place: `fill` appends the set's values to
    /// the column's value vector, which it must not otherwise change.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut Vec<T>)) {
        let start = self.values.len();
        fill(&mut self.values);
        assert!(self.values.len() >= start, "fill removed closed values");
        self.close();
    }

    /// Appends a set from values in any order and with repeats: `fill`
    /// appends them to the column's value vector, which it must not
    /// otherwise change, and the column sorts and deduplicates them.
    pub fn push_union(&mut self, fill: impl FnOnce(&mut Vec<T>)) {
        let start = self.values.len();
        fill(&mut self.values);
        assert!(self.values.len() >= start, "fill removed closed values");
        let tail = &mut self.values[start..];
        tail.sort_unstable();
        let mut kept = 0;
        for i in 0..tail.len() {
            if kept == 0 || tail[kept - 1] != tail[i] {
                tail[kept] = tail[i];
                kept += 1;
            }
        }
        self.values.truncate(start + kept);
        self.close();
    }

    /// Appends `value` to set `set`, closing every set before it. Values
    /// must arrive in `(set, value)` order, starting at the open set.
    #[inline]
    pub fn push_to(&mut self, set: usize, value: T) {
        debug_assert!(set >= self.len(), "set {set} is already closed");
        while self.len() < set {
            self.close();
        }
        self.values.push(value);
    }

    /// Closes the open set (empty when no value was appended since the last
    /// set closed).
    fn close(&mut self) {
        let start = self.off[self.len()] as usize;
        debug_assert!(
            self.values[start..].windows(2).all(|w| w[0] < w[1]),
            "set not ascending"
        );
        let end = u32::try_from(self.values.len()).expect("column holds under 2³² values");
        self.off.push(end);
    }

    /// Closes sets until there are `n` (the open one first).
    pub fn close_to(&mut self, n: usize) {
        while self.len() < n {
            self.close();
        }
    }

    /// `n` sets from `(set, value)` pairs in any set order, by a counting
    /// sort: set `i` holds the values of the pairs naming it, in pair
    /// order, which must be ascending and without repeats.
    pub fn group(n: usize, pairs: &[(u32, T)]) -> SetColumn<T>
    where
        T: Default,
    {
        u32::try_from(pairs.len()).expect("column holds under 2³² values");
        let mut off = vec![0u32; n + 1];
        for &(set, _) in pairs {
            off[set as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut at = off.clone();
        let mut values = vec![T::default(); pairs.len()];
        for &(set, value) in pairs {
            let at = &mut at[set as usize];
            values[*at as usize] = value;
            *at += 1;
        }
        let out = SetColumn { values, off };
        debug_assert!(
            (0..n).all(|i| out.get(i).windows(2).all(|w| w[0] < w[1])),
            "set not ascending"
        );
        out
    }

    /// Appends every set of `other`.
    pub fn append(&mut self, other: &SetColumn<T>) {
        u32::try_from(self.values.len() + other.values.len())
            .expect("column holds under 2³² values");
        let base = self.values.len() as u32;
        debug_assert_eq!(base, self.off[self.len()], "open set before append");
        self.values.extend_from_slice(&other.values);
        self.off.extend(other.off[1..].iter().map(|&o| base + o));
    }

    /// Removes every set, keeping the allocations.
    pub fn clear(&mut self) {
        self.values.clear();
        self.off.truncate(1);
    }

    /// Reserves room for `sets` more sets.
    pub fn reserve(&mut self, sets: usize) {
        self.off.reserve(sets);
    }
}

impl<T: Copy + Ord> Index<usize> for SetColumn<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(sets: &[&[u32]]) -> SetColumn<u32> {
        let mut c = SetColumn::new();
        sets.iter().for_each(|s| c.push(s));
        c
    }

    #[test]
    fn sets_read_back_in_order() {
        let mut c: SetColumn<u32> = SetColumn::new();
        assert!(c.is_empty());
        c.push(&[1, 5]);
        c.push(&[]);
        c.push_with(|v| v.extend([2, 3, 4]));
        c.push_union(|v| v.extend([9, 6, 9, 6, 7]));
        c.push_union(|_| {});
        assert_eq!(c.len(), 5);
        assert_eq!(&c[3], &[6, 7, 9]);
        assert!(c[4].is_empty());
        assert_eq!(&c[0], &[1, 5]);
        assert!(c[1].is_empty());
        assert_eq!(c.get(2), &[2, 3, 4]);
    }

    #[test]
    fn push_to_closes_skipped_sets() {
        let mut c: SetColumn<u32> = SetColumn::new();
        c.push_to(1, 7);
        c.push_to(1, 8);
        c.push_to(3, 1);
        c.close_to(5);
        assert_eq!(c, col(&[&[], &[7, 8], &[], &[1], &[]]));
        // Closing to a count already reached closes nothing.
        c.close_to(2);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn append_rebases_offsets_and_clear_keeps_nothing() {
        let mut a = col(&[&[1], &[2, 3]]);
        a.append(&col(&[&[], &[4, 9]]));
        assert_eq!(a, col(&[&[1], &[2, 3], &[], &[4, 9]]));
        a.clear();
        assert_eq!(a, SetColumn::new());
    }

    #[test]
    fn group_gathers_each_sets_values_in_pair_order() {
        let pairs = [(2, 4u32), (0, 1), (2, 6), (0, 3), (2, 9)];
        let c = SetColumn::group(4, &pairs);
        assert_eq!(c, col(&[&[1, 3], &[], &[4, 6, 9], &[]]));
        assert_eq!(SetColumn::<u32>::group(2, &[]), col(&[&[], &[]]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "set not ascending")]
    fn unsorted_set_is_refused() {
        SetColumn::new().push(&[2u32, 1]);
    }
}
