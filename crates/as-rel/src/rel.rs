//! The relationship database.

use net_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A relationship viewed *from* one AS toward another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// The queried AS is a **provider** of the other (sells it transit).
    Provider,
    /// The queried AS is a **customer** of the other (buys transit).
    Customer,
    /// Settlement-free peering.
    Peer,
}

impl Relationship {
    /// The same edge viewed from the other endpoint.
    pub fn flip(self) -> Relationship {
        match self {
            Relationship::Provider => Relationship::Customer,
            Relationship::Customer => Relationship::Provider,
            Relationship::Peer => Relationship::Peer,
        }
    }
}

/// Stored relationship for a canonical `(low, high)` AS pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum StoredRel {
    /// The lower-numbered AS is the provider.
    LowProvider,
    /// The higher-numbered AS is the provider.
    HighProvider,
    /// Peering.
    Peer,
}

/// A symmetric database of AS relationships.
///
/// Internally each unordered pair is stored once; all queries are expressed
/// from the perspective of the first argument. The structure also maintains
/// per-AS adjacency sets so `providers_of` / `customers_of` / `peers_of`
/// are O(degree).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AsRelationships {
    pairs: BTreeMap<(Asn, Asn), StoredRel>,
    providers: BTreeMap<Asn, BTreeSet<Asn>>,
    customers: BTreeMap<Asn, BTreeSet<Asn>>,
    peers: BTreeMap<Asn, BTreeSet<Asn>>,
}

fn canon(a: Asn, b: Asn) -> ((Asn, Asn), bool) {
    if a <= b {
        ((a, b), false)
    } else {
        ((b, a), true)
    }
}

impl AsRelationships {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `provider` → `customer` transit. Overwrites any previous
    /// relationship between the pair.
    pub fn add_p2c(&mut self, provider: Asn, customer: Asn) {
        if provider == customer {
            return;
        }
        self.unlink(provider, customer);
        let ((lo, hi), swapped) = canon(provider, customer);
        let stored = if swapped {
            StoredRel::HighProvider
        } else {
            StoredRel::LowProvider
        };
        self.pairs.insert((lo, hi), stored);
        self.customers.entry(provider).or_default().insert(customer);
        self.providers.entry(customer).or_default().insert(provider);
    }

    /// Records a peering between `a` and `b`. Overwrites any previous
    /// relationship between the pair.
    pub fn add_p2p(&mut self, a: Asn, b: Asn) {
        if a == b {
            return;
        }
        self.unlink(a, b);
        let ((lo, hi), _) = canon(a, b);
        self.pairs.insert((lo, hi), StoredRel::Peer);
        self.peers.entry(a).or_default().insert(b);
        self.peers.entry(b).or_default().insert(a);
    }

    fn unlink(&mut self, a: Asn, b: Asn) {
        let ((lo, hi), _) = canon(a, b);
        if self.pairs.remove(&(lo, hi)).is_some() {
            for (x, y) in [(a, b), (b, a)] {
                if let Some(s) = self.providers.get_mut(&x) {
                    s.remove(&y);
                }
                if let Some(s) = self.customers.get_mut(&x) {
                    s.remove(&y);
                }
                if let Some(s) = self.peers.get_mut(&x) {
                    s.remove(&y);
                }
            }
        }
    }

    /// The relationship of `a` toward `b`, if any is known.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        let ((lo, hi), swapped) = canon(a, b);
        let stored = *self.pairs.get(&(lo, hi))?;
        let rel = match stored {
            StoredRel::Peer => Relationship::Peer,
            StoredRel::LowProvider => Relationship::Provider,
            StoredRel::HighProvider => Relationship::Customer,
        };
        Some(if swapped { rel.flip() } else { rel })
    }

    /// Is there any known relationship between `a` and `b`?
    pub fn has_relationship(&self, a: Asn, b: Asn) -> bool {
        let ((lo, hi), _) = canon(a, b);
        self.pairs.contains_key(&(lo, hi))
    }

    /// Is `a` a provider of `b`?
    pub fn is_provider(&self, a: Asn, b: Asn) -> bool {
        self.relationship(a, b) == Some(Relationship::Provider)
    }

    /// Is `a` a customer of `b`?
    pub fn is_customer(&self, a: Asn, b: Asn) -> bool {
        self.relationship(a, b) == Some(Relationship::Customer)
    }

    /// Are `a` and `b` peers?
    pub fn is_peer(&self, a: Asn, b: Asn) -> bool {
        self.relationship(a, b) == Some(Relationship::Peer)
    }

    /// The providers of `asn`.
    pub fn providers_of(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.providers.get(&asn).into_iter().flatten().copied()
    }

    /// The customers of `asn`.
    pub fn customers_of(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.customers.get(&asn).into_iter().flatten().copied()
    }

    /// The peers of `asn`.
    pub fn peers_of(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.peers.get(&asn).into_iter().flatten().copied()
    }

    /// All neighbors of `asn` regardless of relationship type.
    pub fn neighbors_of(&self, asn: Asn) -> BTreeSet<Asn> {
        self.providers_of(asn)
            .chain(self.customers_of(asn))
            .chain(self.peers_of(asn))
            .collect()
    }

    /// Number of relationship edges.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no relationships are stored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Every AS that appears in at least one relationship, ascending.
    pub fn ases(&self) -> Vec<Asn> {
        let mut ases: Vec<Asn> = self.pairs.keys().flat_map(|&(a, b)| [a, b]).collect();
        ases.sort_unstable();
        ases.dedup();
        ases
    }

    /// Iterates over `(a, b, relationship-of-a-toward-b)` with `a < b`.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        self.pairs.iter().map(|(&(lo, hi), &stored)| {
            let rel = match stored {
                StoredRel::Peer => Relationship::Peer,
                StoredRel::LowProvider => Relationship::Provider,
                StoredRel::HighProvider => Relationship::Customer,
            };
            (lo, hi, rel)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_views() {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(10), Asn(20));
        assert_eq!(
            r.relationship(Asn(10), Asn(20)),
            Some(Relationship::Provider)
        );
        assert_eq!(
            r.relationship(Asn(20), Asn(10)),
            Some(Relationship::Customer)
        );
        assert!(r.is_provider(Asn(10), Asn(20)));
        assert!(r.is_customer(Asn(20), Asn(10)));
        assert!(!r.is_peer(Asn(10), Asn(20)));
        assert!(r.has_relationship(Asn(20), Asn(10)));
        assert!(!r.has_relationship(Asn(10), Asn(30)));
    }

    #[test]
    fn swapped_order_provider() {
        let mut r = AsRelationships::new();
        // Higher ASN is the provider — exercises StoredRel::HighProvider.
        r.add_p2c(Asn(20), Asn(10));
        assert!(r.is_provider(Asn(20), Asn(10)));
        assert!(r.is_customer(Asn(10), Asn(20)));
    }

    #[test]
    fn peering() {
        let mut r = AsRelationships::new();
        r.add_p2p(Asn(1), Asn(2));
        assert!(r.is_peer(Asn(1), Asn(2)));
        assert!(r.is_peer(Asn(2), Asn(1)));
        assert_eq!(r.peers_of(Asn(1)).collect::<Vec<_>>(), vec![Asn(2)]);
    }

    #[test]
    fn overwrite_relationship() {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(1), Asn(2));
        r.add_p2p(Asn(1), Asn(2));
        assert!(r.is_peer(Asn(1), Asn(2)));
        assert_eq!(r.customers_of(Asn(1)).count(), 0);
        assert_eq!(r.providers_of(Asn(2)).count(), 0);
        assert_eq!(r.len(), 1);
        // And back again, flipping direction.
        r.add_p2c(Asn(2), Asn(1));
        assert!(r.is_customer(Asn(1), Asn(2)));
        assert_eq!(r.peers_of(Asn(1)).count(), 0);
    }

    #[test]
    fn self_loops_ignored() {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(1), Asn(1));
        r.add_p2p(Asn(2), Asn(2));
        assert!(r.is_empty());
    }

    #[test]
    fn adjacency_queries() {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(1), Asn(10));
        r.add_p2c(Asn(1), Asn(11));
        r.add_p2c(Asn(2), Asn(1));
        r.add_p2p(Asn(1), Asn(3));
        let customers: Vec<Asn> = r.customers_of(Asn(1)).collect();
        assert_eq!(customers, vec![Asn(10), Asn(11)]);
        assert_eq!(r.providers_of(Asn(1)).collect::<Vec<_>>(), vec![Asn(2)]);
        assert_eq!(
            r.neighbors_of(Asn(1)),
            [Asn(2), Asn(3), Asn(10), Asn(11)].into_iter().collect()
        );
        assert_eq!(r.ases().len(), 5);
    }

    #[test]
    fn iter_yields_canonical_edges() {
        let mut r = AsRelationships::new();
        r.add_p2c(Asn(5), Asn(3));
        let edges: Vec<_> = r.iter().collect();
        assert_eq!(edges, vec![(Asn(3), Asn(5), Relationship::Customer)]);
    }
}
