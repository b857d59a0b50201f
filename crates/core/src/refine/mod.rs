//! Phase 3: graph refinement (§6).
//!
//! Each iteration annotates every mid-path IR with its operating AS
//! ([`router`], Algorithm 2), then re-annotates every interface with the AS
//! it connects to ([`interface`], §6.2). Annotations propagate across the
//! graph between iterations; each link-connected [`shard`] of the graph
//! stops when its state repeats ([`engine`], §6.3). Every sweep runs on the
//! calling thread, in ascending IR order and in place (Gauss-Seidel).

pub mod engine;
pub mod exceptions;
pub mod hidden;
pub mod incremental;
pub mod interface;
pub mod realloc;
pub mod router;
pub mod shard;
pub mod votes;

pub use engine::{refine, CONVERGENCE_HASH_SEED};
pub use incremental::{refine_incremental, IncrementalStats, ShardCache};
pub use shard::{Shard, ShardPlan};
