//! Memoized relationship/cone queries for hot election loops.
//!
//! Refinement consults [`CustomerCones::size`] and
//! [`AsRelationships::has_relationship`] for every candidate of every
//! election, every iteration. Both are `BTreeMap` lookups; inside one sweep
//! the same handful of ASes is queried thousands of times, so a memo table
//! turns the tree walks into hash probes. The cache borrows the underlying
//! read-only databases and is cheap to construct, so each refinement run
//! owns one.

use crate::{AsRelationships, CustomerCones};
use net_types::Asn;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a for the memo keys (4–8 byte AS numbers): a couple of multiplies
/// beats SipHash by an order of magnitude at these key sizes, and the memo
/// tables are private, so HashDoS resistance buys nothing here.
#[derive(Default)]
pub(crate) struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Hit/miss tallies for one cache. Purely observational: the refinement
/// engine reports them as execution-dependent telemetry (each worker owns a
/// cache, so the split varies with the thread count), and nothing in the
/// inference path ever reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo tables.
    pub hits: u64,
    /// Queries that fell through to the underlying databases.
    pub misses: u64,
}

/// A memoizing view over an [`AsRelationships`] + [`CustomerCones`] pair.
///
/// All answers are identical to the uncached queries — the cache is purely
/// an access-path optimization and never changes results.
#[derive(Debug)]
pub struct RelQueryCache<'a> {
    rels: &'a AsRelationships,
    cones: &'a CustomerCones,
    // detlint::allow(unordered-collection): memo table probed by key only;
    // nothing ever iterates it, so storage order cannot reach any output
    sizes: FnvMap<Asn, usize>,
    // detlint::allow(unordered-collection): memo table probed by key only;
    // nothing ever iterates it, so storage order cannot reach any output
    related: FnvMap<(Asn, Asn), bool>,
    stats: CacheStats,
}

impl<'a> RelQueryCache<'a> {
    /// Creates an empty cache over the given databases.
    pub fn new(rels: &'a AsRelationships, cones: &'a CustomerCones) -> Self {
        RelQueryCache {
            rels,
            cones,
            sizes: FnvMap::default(),
            related: FnvMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// The hit/miss tallies accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The underlying relationship database.
    pub fn rels(&self) -> &'a AsRelationships {
        self.rels
    }

    /// The underlying cones.
    pub fn cones(&self) -> &'a CustomerCones {
        self.cones
    }

    /// Memoized [`CustomerCones::size`].
    pub fn cone_size(&mut self, asn: Asn) -> usize {
        if let Some(&size) = self.sizes.get(&asn) {
            self.stats.hits += 1;
            return size;
        }
        self.stats.misses += 1;
        let size = self.cones.size(asn);
        self.sizes.insert(asn, size);
        size
    }

    /// Memoized [`AsRelationships::has_relationship`] (symmetric, so the
    /// pair is cached in canonical order).
    pub fn has_relationship(&mut self, a: Asn, b: Asn) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&related) = self.related.get(&key) {
            self.stats.hits += 1;
            return related;
        }
        self.stats.misses += 1;
        let related = self.rels.has_relationship(a, b);
        self.related.insert(key, related);
        related
    }

    /// Memoized [`CustomerCones::largest_cone`]: among `candidates`, the one
    /// with the largest cone, ties to the lowest ASN.
    pub fn largest_cone<I: IntoIterator<Item = Asn>>(&mut self, candidates: I) -> Option<Asn> {
        candidates
            .into_iter()
            .max_by_key(|&a| (self.cone_size(a), std::cmp::Reverse(a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbs() -> (AsRelationships, CustomerCones) {
        let mut r = AsRelationships::new();
        r.add_p2p(Asn(1), Asn(2));
        r.add_p2c(Asn(1), Asn(3));
        r.add_p2c(Asn(3), Asn(5));
        let cones = CustomerCones::compute(&r);
        (r, cones)
    }

    #[test]
    fn cache_matches_uncached() {
        let (rels, cones) = dbs();
        let mut cache = RelQueryCache::new(&rels, &cones);
        for a in 1..=6u32 {
            // Query twice: once filling, once hitting the memo.
            for _ in 0..2 {
                assert_eq!(cache.cone_size(Asn(a)), cones.size(Asn(a)));
                for b in 1..=6u32 {
                    assert_eq!(
                        cache.has_relationship(Asn(a), Asn(b)),
                        rels.has_relationship(Asn(a), Asn(b)),
                        "pair ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let (rels, cones) = dbs();
        let mut cache = RelQueryCache::new(&rels, &cones);
        assert_eq!(cache.stats(), CacheStats::default());
        cache.cone_size(Asn(1)); // miss
        cache.cone_size(Asn(1)); // hit
        cache.has_relationship(Asn(1), Asn(2)); // miss
        cache.has_relationship(Asn(2), Asn(1)); // hit (canonical key)
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn largest_cone_matches_uncached() {
        let (rels, cones) = dbs();
        let mut cache = RelQueryCache::new(&rels, &cones);
        let sets: [&[u32]; 4] = [&[1, 2, 3], &[2, 3], &[5], &[]];
        for set in sets {
            let cands: Vec<Asn> = set.iter().copied().map(Asn).collect();
            assert_eq!(
                cache.largest_cone(cands.iter().copied()),
                cones.largest_cone(cands.iter().copied())
            );
        }
    }
}
