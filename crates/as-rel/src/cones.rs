//! Customer cones.

use crate::AsRelationships;
use net_types::{AsSets, Asn, SetColumn};

/// Per-AS customer cones: the set of ASes reachable from an AS by following
/// only provider→customer edges, *including the AS itself* (Luckie et al.
/// 2013 convention, which the paper follows — a stub AS has cone size 1).
///
/// bdrmapIT consults cones constantly: "select the AS with the smallest
/// customer cone" (§5.1, §6.1.4), "customer cone of at most five ASes"
/// (§4.4), "the AS in L with the largest customer cone" (§6.1.1), so both
/// the sets and the sizes are precomputed here: `cones[i]` is the cone of
/// `ases[i]`, ascending.
#[derive(Clone, Debug, Default)]
pub struct CustomerCones {
    /// Every AS of the relationship database, ascending.
    ases: Vec<Asn>,
    cones: AsSets,
}

impl CustomerCones {
    /// Computes every cone from a relationship database.
    ///
    /// A cone is the set of ASes reachable over provider→customer edges, so
    /// each is found by one walk from its AS over dense AS ranks. The walk
    /// marks the ranks it reaches in one bitset of `ASes / 8` bytes, reused
    /// by every walk; its set bits, read lowest first, are the cone in
    /// ascending order, so no cone is sorted, and reading them clears the
    /// marks for the next walk. A stub's cone is itself: no walk starts or
    /// continues at one.
    ///
    /// Memory is the column, 4 bytes per cone member plus 4 per AS, and
    /// scratch linear in the ASes and edges. There is no bitset per AS or
    /// per component: at the Internet's ~60k ASes those would take hundreds
    /// of megabytes.
    ///
    /// Provider→customer edges should form a DAG; if inference produced a
    /// cycle, its members reach each other and share each other's cones —
    /// the conservative outcome. Reachability is the least fixpoint of "a
    /// cone is its AS plus its customers' cones": the reachable sets satisfy
    /// that equation, and any family that satisfies it contains every AS a
    /// path reaches, by induction on the path's length. The least fixpoint
    /// is unique, so this equals the pass-until-stable computation.
    pub fn compute(rels: &AsRelationships) -> Self {
        let ases: Vec<Asn> = rels.ases().into_iter().collect();
        let rank = |a: Asn| ases.binary_search(&a).expect("customer is a known AS");
        // Customer ranks per rank; `customers_of` is ascending, so are they.
        let mut customers = SetColumn::new();
        for &a in &ases {
            customers.push_with(|v| v.extend(rels.customers_of(a).map(rank)));
        }
        let mut seen = vec![0u64; ases.len().div_ceil(64)];
        let mut stack = Vec::new();
        let mut cones = AsSets::new();
        cones.reserve(ases.len());
        for (i, &asn) in ases.iter().enumerate() {
            if customers[i].is_empty() {
                cones.push(&[asn]);
                continue;
            }
            seen[i / 64] |= 1 << (i % 64);
            stack.push(i);
            while let Some(r) = stack.pop() {
                for &c in &customers[r] {
                    let (word, bit) = (c / 64, 1 << (c % 64));
                    if seen[word] & bit == 0 {
                        seen[word] |= bit;
                        // A stub's own walk would end at once.
                        if !customers[c].is_empty() {
                            stack.push(c);
                        }
                    }
                }
            }
            cones.push_with(|cone| {
                for (w, word) in seen.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        cone.push(ases[w * 64 + bits.trailing_zeros() as usize]);
                        bits &= bits - 1;
                    }
                }
            });
        }
        CustomerCones { ases, cones }
    }

    /// The cone of `asn`, ascending. Unknown ASes get the singleton `{asn}`
    /// semantics via [`CustomerCones::size`]; this accessor returns `None`
    /// for them.
    pub fn cone(&self, asn: Asn) -> Option<&[Asn]> {
        let i = self.ases.binary_search(&asn).ok()?;
        Some(&self.cones[i])
    }

    /// Cone size of `asn`; ASes absent from the relationship graph count as
    /// stubs of size 1.
    pub fn size(&self, asn: Asn) -> usize {
        self.cone(asn).map_or(1, <[Asn]>::len)
    }

    /// Is `member` inside the cone of `asn`? (Every AS is in its own cone.)
    pub fn contains(&self, asn: Asn, member: Asn) -> bool {
        asn == member
            || self
                .cone(asn)
                .is_some_and(|c| c.binary_search(&member).is_ok())
    }

    /// `|cone(asn) ∩ others|` for a set `others` without repeats — used by
    /// Alg. 1 line 6 of the paper.
    pub fn intersection_size(&self, asn: Asn, others: &[Asn]) -> usize {
        match self.cone(asn) {
            Some(c) => others.iter().filter(|a| c.binary_search(a).is_ok()).count(),
            None => usize::from(others.contains(&asn)),
        }
    }

    /// Among `candidates`, the one with the smallest cone, ties to lowest
    /// ASN (the paper's recurring "smallest customer cone" tie-break).
    pub fn smallest_cone<I: IntoIterator<Item = Asn>>(&self, candidates: I) -> Option<Asn> {
        candidates.into_iter().min_by_key(|&a| (self.size(a), a))
    }

    /// Among `candidates`, the one with the largest cone, ties to lowest
    /// ASN (used by the IXP vote heuristic, §6.1.1).
    pub fn largest_cone<I: IntoIterator<Item = Asn>>(&self, candidates: I) -> Option<Asn> {
        candidates
            .into_iter()
            .max_by_key(|&a| (self.size(a), std::cmp::Reverse(a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The pass-until-stable computation the walk replaced: fold customers'
    /// cones into providers until nothing changes.
    fn fixpoint(rels: &AsRelationships) -> BTreeMap<Asn, BTreeSet<Asn>> {
        let mut cones: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();
        let ases = rels.ases();
        for &asn in &ases {
            cones.insert(asn, BTreeSet::from([asn]));
        }
        loop {
            let mut changed = false;
            for &asn in &ases {
                let mut merged: BTreeSet<Asn> = BTreeSet::new();
                for cust in rels.customers_of(asn) {
                    if let Some(cc) = cones.get(&cust) {
                        merged.extend(cc.iter().copied());
                    }
                }
                let mine = cones.get_mut(&asn).expect("initialized");
                let before = mine.len();
                mine.extend(merged);
                if mine.len() != before {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        cones
    }

    /// The queries over the fixpoint's trees, as they read before the
    /// column.
    struct Oracle(BTreeMap<Asn, BTreeSet<Asn>>);

    impl Oracle {
        fn size(&self, asn: Asn) -> usize {
            self.0.get(&asn).map_or(1, BTreeSet::len)
        }

        fn contains(&self, asn: Asn, member: Asn) -> bool {
            asn == member || self.0.get(&asn).is_some_and(|c| c.contains(&member))
        }

        fn intersection_size(&self, asn: Asn, others: &[Asn]) -> usize {
            match self.0.get(&asn) {
                Some(c) => others.iter().filter(|a| c.contains(a)).count(),
                None => usize::from(others.contains(&asn)),
            }
        }

        fn smallest_cone(&self, candidates: &[Asn]) -> Option<Asn> {
            candidates
                .iter()
                .copied()
                .min_by_key(|&a| (self.size(a), a))
        }

        fn largest_cone(&self, candidates: &[Asn]) -> Option<Asn> {
            candidates
                .iter()
                .copied()
                .max_by_key(|&a| (self.size(a), std::cmp::Reverse(a)))
        }
    }

    proptest! {
        /// Random relationship graphs — p2c cycles, peers, and queries for
        /// ASes outside the graph — answer every query like the fixpoint.
        #[test]
        fn walked_cones_match_the_fixpoint(
            edges in proptest::collection::vec((0u32..24, 0u32..24, 0u32..4), 0..60),
            others in proptest::collection::vec(0u32..30, 0..8),
            candidates in proptest::collection::vec(
                proptest::collection::vec(0u32..30, 0..8),
                0..6,
            ),
        ) {
            let mut rels = AsRelationships::new();
            for (a, b, kind) in edges {
                // Mostly provider→customer edges, which close cycles often.
                if kind == 0 {
                    rels.add_p2p(Asn(a), Asn(b));
                } else {
                    rels.add_p2c(Asn(a), Asn(b));
                }
            }
            let (got, want) = (CustomerCones::compute(&rels), Oracle(fixpoint(&rels)));
            let others: Vec<Asn> = others
                .into_iter()
                .map(Asn)
                .collect::<BTreeSet<Asn>>()
                .into_iter()
                .collect();
            // ASes 24..30 are never in the graph.
            for a in (0..30).map(Asn) {
                let want_cone: Option<Vec<Asn>> =
                    want.0.get(&a).map(|c| c.iter().copied().collect());
                prop_assert_eq!(got.cone(a), want_cone.as_deref());
                prop_assert_eq!(got.size(a), want.size(a));
                prop_assert_eq!(got.intersection_size(a, &others), want.intersection_size(a, &others));
                for b in (0..30).map(Asn) {
                    prop_assert_eq!(got.contains(a, b), want.contains(a, b));
                }
            }
            // Candidate lists keep their repeats and unknown ASes, so cone
            // sizes and ASNs both tie.
            for list in candidates {
                let list: Vec<Asn> = list.into_iter().map(Asn).collect();
                prop_assert_eq!(got.smallest_cone(list.iter().copied()), want.smallest_cone(&list));
                prop_assert_eq!(got.largest_cone(list.iter().copied()), want.largest_cone(&list));
            }
        }
    }

    /// 1 ── clique peer ── 2
    /// │                   │
    /// 3 (customer of 1)   4 (customer of 2)
    /// │
    /// 5 (customer of 3, also customer of 4)
    fn fixture() -> AsRelationships {
        let mut r = AsRelationships::new();
        r.add_p2p(Asn(1), Asn(2));
        r.add_p2c(Asn(1), Asn(3));
        r.add_p2c(Asn(2), Asn(4));
        r.add_p2c(Asn(3), Asn(5));
        r.add_p2c(Asn(4), Asn(5));
        r
    }

    #[test]
    fn cone_contents() {
        let cones = CustomerCones::compute(&fixture());
        assert_eq!(cones.cone(Asn(1)), Some(&[Asn(1), Asn(3), Asn(5)][..]));
        assert_eq!(cones.cone(Asn(99)), None);
        assert_eq!(cones.size(Asn(1)), 3);
        assert_eq!(cones.size(Asn(2)), 3);
        assert_eq!(cones.size(Asn(3)), 2);
        assert_eq!(cones.size(Asn(5)), 1);
        // Peering does not contribute to cones.
        assert!(!cones.contains(Asn(1), Asn(2)));
        assert!(cones.contains(Asn(1), Asn(5)));
        assert!(cones.contains(Asn(5), Asn(5)));
    }

    #[test]
    fn unknown_as_is_stub() {
        let cones = CustomerCones::compute(&fixture());
        assert_eq!(cones.size(Asn(99)), 1);
        assert!(cones.contains(Asn(99), Asn(99)));
        assert!(!cones.contains(Asn(99), Asn(1)));
    }

    #[test]
    fn tie_breaks() {
        let cones = CustomerCones::compute(&fixture());
        // smallest: 5 (size 1); tie between 3 and 4 (size 2) → lowest ASN.
        assert_eq!(cones.smallest_cone([Asn(3), Asn(4)]), Some(Asn(3)));
        assert_eq!(cones.smallest_cone([Asn(1), Asn(5)]), Some(Asn(5)));
        // largest: tie between 1 and 2 (size 3) → lowest ASN.
        assert_eq!(cones.largest_cone([Asn(1), Asn(2), Asn(3)]), Some(Asn(1)));
        assert_eq!(cones.smallest_cone(std::iter::empty()), None);
    }

    #[test]
    fn intersection() {
        let cones = CustomerCones::compute(&fixture());
        let others = [Asn(3), Asn(4), Asn(5)];
        assert_eq!(cones.intersection_size(Asn(1), &others), 2); // 3 and 5
        assert_eq!(cones.intersection_size(Asn(99), &others), 0);
        assert_eq!(cones.intersection_size(Asn(99), &[Asn(99)]), 1);
    }

    #[test]
    fn cycle_terminates() {
        let mut r = AsRelationships::new();
        // A p2c cycle (bad inference): 1→2→3→1.
        r.add_p2c(Asn(1), Asn(2));
        r.add_p2c(Asn(2), Asn(3));
        r.add_p2c(Asn(3), Asn(1));
        let cones = CustomerCones::compute(&r);
        // Everyone absorbs everyone; computation must terminate.
        assert_eq!(cones.size(Asn(1)), 3);
        assert_eq!(cones.size(Asn(2)), 3);
        assert_eq!(cones.size(Asn(3)), 3);
    }
}
