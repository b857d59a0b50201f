//! Customer cones.

use crate::AsRelationships;
use net_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-AS customer cones: the set of ASes reachable from an AS by following
/// only provider→customer edges, *including the AS itself* (Luckie et al.
/// 2013 convention, which the paper follows — a stub AS has cone size 1).
///
/// bdrmapIT consults cones constantly: "select the AS with the smallest
/// customer cone" (§5.1, §6.1.4), "customer cone of at most five ASes"
/// (§4.4), "the AS in L with the largest customer cone" (§6.1.1), so both
/// the sets and the sizes are precomputed here.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CustomerCones {
    cones: BTreeMap<Asn, BTreeSet<Asn>>,
}

impl CustomerCones {
    /// Computes every cone from a relationship database.
    ///
    /// A cone is the set of ASes reachable over provider→customer edges,
    /// so it is computed as reachability over dense AS ranks with one
    /// bitset per strongly connected component, customers before
    /// providers. Provider→customer edges should form a DAG; if inference
    /// produced a cycle, its members share one component and each other's
    /// cones — the conservative outcome, and the least fixpoint of "a cone
    /// is its AS plus its customers' cones", which is unique, so it equals
    /// the pass-until-stable computation this replaces.
    pub fn compute(rels: &AsRelationships) -> Self {
        let ases: Vec<Asn> = rels.ases().into_iter().collect();
        let rank = |a: Asn| ases.binary_search(&a).expect("customer is a known AS");
        let customers: Vec<Vec<usize>> = ases
            .iter()
            .map(|&a| rels.customers_of(a).map(rank).collect())
            .collect();
        let comps = components(&customers);
        let mut comp_of = vec![0; ases.len()];
        for (c, members) in comps.iter().enumerate() {
            for &m in members {
                comp_of[m] = c;
            }
        }
        // `reach[c]` is component `c`'s cone as a bitset over ranks; every
        // component a member's customers fall in was finished before it.
        let words = ases.len().div_ceil(64);
        let mut reach = vec![0u64; comps.len() * words];
        for (c, members) in comps.iter().enumerate() {
            let (done, rest) = reach.split_at_mut(c * words);
            let row = &mut rest[..words];
            for &m in members {
                row[m / 64] |= 1 << (m % 64);
                for &cust in &customers[m] {
                    let cc = comp_of[cust];
                    if cc != c {
                        for (w, &bits) in row.iter_mut().zip(&done[cc * words..(cc + 1) * words]) {
                            *w |= bits;
                        }
                    }
                }
            }
        }
        let ases = &ases;
        let cones = ases
            .iter()
            .enumerate()
            .map(|(i, &asn)| {
                let row = &reach[comp_of[i] * words..(comp_of[i] + 1) * words];
                // Set bits, lowest first: ascending ranks are ascending ASNs.
                let members = row.iter().enumerate().flat_map(|(w, &bits)| {
                    std::iter::successors((bits != 0).then_some(bits), |&b| {
                        let rest = b & (b - 1);
                        (rest != 0).then_some(rest)
                    })
                    .map(move |b| ases[w * 64 + b.trailing_zeros() as usize])
                });
                (asn, members.collect())
            })
            .collect();
        CustomerCones { cones }
    }

    /// The cone of `asn`. Unknown ASes get the singleton `{asn}` semantics
    /// via [`CustomerCones::size`]; this accessor returns `None` for them.
    pub fn cone(&self, asn: Asn) -> Option<&BTreeSet<Asn>> {
        self.cones.get(&asn)
    }

    /// Cone size of `asn`; ASes absent from the relationship graph count as
    /// stubs of size 1.
    pub fn size(&self, asn: Asn) -> usize {
        self.cones.get(&asn).map_or(1, BTreeSet::len)
    }

    /// Is `member` inside the cone of `asn`? (Every AS is in its own cone.)
    pub fn contains(&self, asn: Asn, member: Asn) -> bool {
        if asn == member {
            return true;
        }
        self.cones.get(&asn).is_some_and(|c| c.contains(&member))
    }

    /// `|cone(asn) ∩ others|` for a set `others` without repeats — used by
    /// Alg. 1 line 6 of the paper.
    pub fn intersection_size(&self, asn: Asn, others: &[Asn]) -> usize {
        match self.cones.get(&asn) {
            Some(c) => others.iter().filter(|a| c.contains(a)).count(),
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

/// The strongly connected components of the graph with successor lists
/// `succ`, by an iterative Tarjan walk. Components are emitted in reverse
/// topological order: each comes after every component it reaches.
fn components(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let (mut index, mut low) = (vec![UNSEEN; n], vec![0; n]);
    let mut on_stack = vec![false; n];
    let (mut stack, mut comps) = (Vec::new(), Vec::new());
    // The walk's call stack: a node and the next successor to visit.
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next = 0;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        call.push((root, 0));
        while let Some(&(v, i)) = call.last() {
            if index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(i) {
                call.last_mut().expect("v is on the call stack").1 += 1;
                if index[w] == UNSEEN {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            call.pop();
            if let Some(&(u, _)) = call.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("component members are stacked");
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comps.push(comp);
            }
        }
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pass-until-stable computation the bitset walk replaced: fold
    /// customers' cones into providers until nothing changes.
    fn fixpoint(rels: &AsRelationships) -> CustomerCones {
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
        CustomerCones { cones }
    }

    proptest! {
        /// Random relationship graphs — p2c cycles, peers, and queries for
        /// ASes outside the graph — answer every query like the fixpoint.
        #[test]
        fn bitset_cones_match_the_fixpoint(
            edges in proptest::collection::vec((0u32..24, 0u32..24, 0u32..4), 0..60),
            others in proptest::collection::vec(0u32..30, 0..8),
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
            let (got, want) = (CustomerCones::compute(&rels), fixpoint(&rels));
            prop_assert_eq!(&got.cones, &want.cones);
            let others: Vec<Asn> = others
                .into_iter()
                .map(Asn)
                .collect::<BTreeSet<Asn>>()
                .into_iter()
                .collect();
            // ASes 24..30 are never in the graph.
            for a in (0..30).map(Asn) {
                prop_assert_eq!(got.cone(a), want.cone(a));
                prop_assert_eq!(got.size(a), want.size(a));
                prop_assert_eq!(got.intersection_size(a, &others), want.intersection_size(a, &others));
                for b in (0..30).map(Asn) {
                    prop_assert_eq!(got.contains(a, b), want.contains(a, b));
                }
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
        assert_eq!(
            cones.cone(Asn(1)).unwrap(),
            &[Asn(1), Asn(3), Asn(5)]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
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
