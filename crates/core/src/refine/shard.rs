//! Annotation-dependency shards.
//!
//! During a router sweep (§6.1), annotating IR *i* reads only the state of
//! IRs reachable through *i*'s links (`state.router` of the subsequent
//! router, `state.iface` of the subsequent interface); during an interface
//! sweep (§6.2), interface *j* reads only the router annotations of its own
//! IR and of the predecessor IRs in `preds[j]` — all of which hold a link
//! to *j*. Annotation state therefore never flows between two IRs unless
//! they are connected by a chain of Nexthop/Echo/Multihop links, so the
//! weakly connected components of the IR graph partition the refinement
//! problem into independent **shards** that converge separately without
//! changing any result.

use crate::graph::{Ir, IrId};

/// One weakly connected component of the IR graph.
#[derive(Clone, Debug, Default)]
pub struct Shard {
    /// Every member IR (ascending). Last-hop IRs are included: their frozen
    /// annotations are part of the shard's convergence state.
    pub irs: Vec<u32>,
    /// Member IRs with outgoing links (ascending) — the router-sweep set.
    pub mid_path: Vec<u32>,
    /// Member interface indices (ascending) — the interface-sweep set.
    pub ifaces: Vec<u32>,
}

/// The shard partition of an IR graph, computed once at graph-build time.
#[derive(Clone, Debug, Default)]
pub struct ShardPlan {
    /// All shards, ordered by their lowest member IR index.
    pub shards: Vec<Shard>,
    /// IR index → index into [`ShardPlan::shards`].
    pub ir_shard: Vec<u32>,
}

impl ShardPlan {
    /// Partitions the IR graph into link-connected shards.
    pub fn compute(irs: &[Ir], iface_ir: &[IrId]) -> ShardPlan {
        let n = irs.len();
        // Union-find over IR indices; links connect an IR to the IR owning
        // the destination interface.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let grand = parent[parent[x as usize] as usize];
                parent[x as usize] = grand;
                x = grand;
            }
            x
        }
        for ir in irs {
            for link in &ir.links {
                let jr = iface_ir[link.dst.0 as usize].0;
                let a = find(&mut parent, ir.id.0);
                let b = find(&mut parent, jr);
                if a != b {
                    // Union toward the smaller root so each component's
                    // representative is its lowest member.
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }

        // Number shards by first appearance in ascending IR order, which
        // orders them by lowest member.
        let mut ir_shard = vec![u32::MAX; n];
        let mut shards: Vec<Shard> = Vec::new();
        for i in 0..n as u32 {
            let root = find(&mut parent, i) as usize;
            let sid = if ir_shard[root] == u32::MAX {
                shards.push(Shard::default());
                let sid = (shards.len() - 1) as u32;
                ir_shard[root] = sid;
                sid
            } else {
                ir_shard[root]
            };
            ir_shard[i as usize] = sid;
            shards[sid as usize].irs.push(i);
            if !irs[i as usize].links.is_empty() {
                shards[sid as usize].mid_path.push(i);
            }
        }

        // Interfaces follow their owning IR.
        for (idx, &ir) in iface_ir.iter().enumerate() {
            shards[ir_shard[ir.0 as usize] as usize]
                .ifaces
                .push(idx as u32);
        }

        ShardPlan { shards, ir_shard }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{IfIdx, Link, LinkLabel};

    /// Builds `n` IRs each owning one interface, wired by `edges`
    /// (src IR → dst IR, through the dst IR's interface).
    fn plan_of(n: u32, edges: &[(u32, u32)]) -> ShardPlan {
        let mut irs: Vec<Ir> = (0..n)
            .map(|i| Ir {
                id: IrId(i),
                ifaces: vec![IfIdx(i)],
                links: Vec::new(),
            })
            .collect();
        for (row, &(src, dst)) in edges.iter().enumerate() {
            irs[src as usize].links.push(Link {
                dst: IfIdx(dst),
                label: LinkLabel::Nexthop,
                row: row as u32,
                dst_origin_probed: false,
            });
        }
        let iface_ir: Vec<IrId> = (0..n).map(IrId).collect();
        ShardPlan::compute(&irs, &iface_ir)
    }

    #[test]
    fn partition_covers_every_ir_exactly_once() {
        let plan = plan_of(7, &[(0, 1), (1, 2), (4, 5), (2, 0)]);
        let mut seen = vec![0u32; 7];
        for shard in &plan.shards {
            for &ir in &shard.irs {
                seen[ir as usize] += 1;
            }
        }
        assert_eq!(seen, vec![1; 7], "every IR in exactly one shard");
        // ir_shard agrees with membership.
        for (sid, shard) in plan.shards.iter().enumerate() {
            for &ir in &shard.irs {
                assert_eq!(plan.ir_shard[ir as usize], sid as u32);
            }
        }
    }

    #[test]
    fn components_split_correctly() {
        // {0,1,2} linked, {3} isolated, {4,5} linked, {6} isolated.
        let plan = plan_of(7, &[(0, 1), (1, 2), (4, 5)]);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.irs.len()).collect();
        assert_eq!(sizes, vec![3, 1, 2, 1]);
        // Shards are ordered by lowest member.
        assert_eq!(plan.shards[0].irs, vec![0, 1, 2]);
        assert_eq!(plan.shards[2].irs, vec![4, 5]);
        // Destination-only IRs are members but not mid-path.
        assert_eq!(plan.shards[0].mid_path, vec![0, 1]);
        assert_eq!(plan.shards[2].mid_path, vec![4]);
    }

    #[test]
    fn ifaces_follow_their_ir() {
        let plan = plan_of(4, &[(0, 1), (2, 3)]);
        assert_eq!(plan.shards[0].ifaces, vec![0, 1]);
        assert_eq!(plan.shards[1].ifaces, vec![2, 3]);
    }
}
