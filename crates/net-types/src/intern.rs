//! Dense interning of IPv4 addresses.
//!
//! The pipeline's phase-1 graph build touches every responsive traceroute
//! hop several times (dest-set recording, link extraction, predecessor
//! tracking). Keying those accesses by the 32-bit address through a hash map
//! means hashing and probing per touch; interning every observed address
//! into a dense `u32` id once turns all downstream bookkeeping into plain
//! array indexing and sorted-vector merges.
//!
//! An [`AddrInterner`] is immutable after construction and assigns ids in
//! ascending address order, so the id space is *canonical*: any two builds
//! over the same observed address set — regardless of thread count or the
//! order shards delivered their observations — produce the identical
//! mapping. That property is what lets the parallel graph build merge
//! shard-local observation vectors with a deterministic sort instead of a
//! coordination step.

/// Bits of an address that pick its bucket in the offset index.
const BUCKET_BITS: u32 = 16;
/// Number of buckets: one per value of an address's top [`BUCKET_BITS`].
const BUCKETS: usize = 1 << BUCKET_BITS;

/// An immutable IPv4 → dense-id interner.
///
/// Ids are `0..len()`, assigned in ascending address order. A lookup reads
/// the bucket of the address's top 16 bits from an offset index and
/// binary-searches that bucket's slice of one sorted `Vec<u32>` — no
/// hashing, no per-process seed, bit-identical behaviour on every platform.
/// Equality compares the interned address sets only; the index is derived
/// from them.
#[derive(Clone)]
pub struct AddrInterner {
    addrs: Vec<u32>,
    /// `starts[b]` is the id of the first address whose top 16 bits are at
    /// least `b`, so bucket `b` is `addrs[starts[b]..starts[b + 1]]`;
    /// `BUCKETS + 1` entries, the last one `len()`.
    starts: Vec<u32>,
}

impl AddrInterner {
    /// Builds the interner from any iterator of addresses; duplicates are
    /// collapsed. The id of an address is its rank in the deduplicated
    /// ascending order.
    pub fn from_addrs<I: IntoIterator<Item = u32>>(addrs: I) -> AddrInterner {
        let mut addrs: Vec<u32> = addrs.into_iter().collect();
        addrs.sort_unstable();
        addrs.dedup();
        AddrInterner::from_sorted(addrs)
    }

    /// Builds from a vector that is already sorted and deduplicated
    /// (debug-checked), skipping the sort.
    pub fn from_sorted(addrs: Vec<u32>) -> AddrInterner {
        debug_assert!(addrs.windows(2).all(|w| w[0] < w[1]), "not sorted+dedup");
        let mut starts = Vec::with_capacity(BUCKETS + 1);
        let mut i = 0;
        for b in 0..=BUCKETS {
            while i < addrs.len() && ((addrs[i] >> BUCKET_BITS) as usize) < b {
                i += 1;
            }
            starts.push(i as u32);
        }
        AddrInterner { addrs, starts }
    }

    /// The dense id of `addr`, if it was interned.
    #[inline]
    pub fn id(&self, addr: u32) -> Option<u32> {
        let b = (addr >> BUCKET_BITS) as usize;
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        self.addrs[lo..hi]
            .binary_search(&addr)
            .ok()
            .map(|i| (lo + i) as u32)
    }

    /// The address carrying dense id `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    #[inline]
    pub fn addr(&self, id: u32) -> u32 {
        self.addrs[id as usize]
    }

    /// Number of interned addresses (the id space is `0..len()`).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// All interned addresses in id order (index == id).
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// Iterates `(id, addr)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.addrs.iter().enumerate().map(|(i, &a)| (i as u32, a))
    }
}

impl Default for AddrInterner {
    fn default() -> AddrInterner {
        AddrInterner::from_sorted(Vec::new())
    }
}

impl PartialEq for AddrInterner {
    fn eq(&self, other: &AddrInterner) -> bool {
        self.addrs == other.addrs
    }
}

impl Eq for AddrInterner {}

impl std::fmt::Debug for AddrInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddrInterner")
            .field("addrs", &self.addrs)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ascending_ranks() {
        let it = AddrInterner::from_addrs([30u32, 10, 20, 10]);
        assert_eq!(it.len(), 3);
        assert_eq!(it.id(10), Some(0));
        assert_eq!(it.id(20), Some(1));
        assert_eq!(it.id(30), Some(2));
        assert_eq!(it.id(25), None);
        assert_eq!(it.addr(2), 30);
        assert_eq!(it.addrs(), &[10, 20, 30]);
    }

    #[test]
    fn insertion_order_never_matters() {
        let a = AddrInterner::from_addrs([5u32, 1, 9, 3]);
        let b = AddrInterner::from_addrs([9u32, 3, 5, 1, 1, 9]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_sorted_matches_from_addrs() {
        let a = AddrInterner::from_addrs([2u32, 4, 8]);
        let b = AddrInterner::from_sorted(vec![2, 4, 8]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty() {
        let it = AddrInterner::from_addrs(std::iter::empty());
        assert!(it.is_empty());
        assert_eq!(it.id(0), None);
        assert_eq!(it.iter().count(), 0);
    }

    #[test]
    fn iter_pairs() {
        let it = AddrInterner::from_addrs([7u32, 3]);
        let pairs: Vec<(u32, u32)> = it.iter().collect();
        assert_eq!(pairs, vec![(0, 3), (1, 7)]);
    }

    #[test]
    fn extremes_and_bucket_edges() {
        let b = 0x0A01_0000u32; // first address of one 16-bit bucket
        let it = AddrInterner::from_addrs([0, b, b | 0xFFFF, u32::MAX]);
        assert_eq!(it.id(0), Some(0));
        assert_eq!(it.id(b), Some(1));
        assert_eq!(it.id(b | 0xFFFF), Some(2));
        assert_eq!(it.id(u32::MAX), Some(3));
        for absent in [1, b - 1, b + 1, (b | 0xFFFF) + 1, u32::MAX - 1] {
            assert_eq!(it.id(absent), None, "{absent:#x}");
        }
        let one = AddrInterner::from_addrs([u32::MAX]);
        assert_eq!((one.id(u32::MAX), one.id(0)), (Some(0), None));
        assert_eq!(AddrInterner::default().id(u32::MAX), None);
    }

    #[test]
    fn equality_ignores_how_it_was_built() {
        assert_eq!(
            AddrInterner::default(),
            AddrInterner::from_sorted(Vec::new())
        );
        let a = AddrInterner::from_addrs([9u32, 0x0001_0000]);
        assert_eq!(a.clone(), AddrInterner::from_sorted(vec![9, 0x0001_0000]));
        assert_ne!(a, AddrInterner::from_addrs([9u32]));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Addresses drawn so that some sets are spread over the whole
        /// space, some sit in one 16-bit bucket, and the extremes (0,
        /// `u32::MAX`, both ends of a bucket) turn up often.
        fn addr_strategy() -> impl Strategy<Value = u32> {
            prop_oneof![
                3 => any::<u32>(),
                3 => (0u32..4, any::<u16>()).prop_map(|(b, lo)| 0x0A00_0000 | b << 16 | u32::from(lo)),
                2 => (any::<u16>(), prop_oneof![Just(0u32), Just(0xFFFF)])
                    .prop_map(|(b, lo)| u32::from(b) << 16 | lo),
                1 => prop_oneof![Just(0u32), Just(1), Just(u32::MAX - 1), Just(u32::MAX)],
            ]
        }

        fn one_bucket_strategy() -> impl Strategy<Value = Vec<u32>> {
            (
                any::<u16>(),
                proptest::collection::vec(any::<u16>(), 0..200),
            )
                .prop_map(|(b, los)| {
                    los.into_iter()
                        .map(|lo| u32::from(b) << 16 | u32::from(lo))
                        .collect()
                })
        }

        fn check(set: Vec<u32>, queries: Vec<u32>) -> Result<(), TestCaseError> {
            let it = AddrInterner::from_addrs(set.iter().copied());
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(it.addrs(), &sorted[..]);
            for &a in set.iter().chain(&queries) {
                let want = sorted.binary_search(&a).ok().map(|i| i as u32);
                prop_assert_eq!(it.id(a), want, "addr {:#x}", a);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn id_is_the_binary_search_rank(
                set in proptest::collection::vec(addr_strategy(), 0..300),
                queries in proptest::collection::vec(addr_strategy(), 0..100),
            ) {
                check(set, queries)?;
            }

            #[test]
            fn id_is_the_binary_search_rank_in_one_bucket(
                set in one_bucket_strategy(),
                queries in proptest::collection::vec(addr_strategy(), 0..50),
            ) {
                // Neighbours of every member probe the bucket's interior
                // and its edges, where members are absent.
                let mut queries = queries;
                queries.extend(set.iter().flat_map(|&a| [a.wrapping_sub(1), a.wrapping_add(1)]));
                check(set, queries)?;
            }

            #[test]
            fn equality_compares_address_sets(
                a in proptest::collection::vec(addr_strategy(), 0..40),
                b in proptest::collection::vec(addr_strategy(), 0..40),
            ) {
                let (ia, ib) = (AddrInterner::from_addrs(a.clone()), AddrInterner::from_addrs(b.clone()));
                let set = |v: Vec<u32>| v.into_iter().collect::<std::collections::BTreeSet<u32>>();
                prop_assert_eq!(ia == ib, set(a) == set(b));
            }
        }
    }
}
