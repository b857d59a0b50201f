//! Phase 3: graph refinement (§6).
//!
//! Each iteration annotates every mid-path IR with its operating AS
//! ([`router`], Algorithm 2), then re-annotates every interface with the AS
//! it connects to ([`interface`], §6.2). Annotations propagate across the
//! graph between iterations, and the loop stops when the whole graph's state
//! repeats ([`engine`], §6.3). Every sweep runs on the calling thread, in
//! ascending IR order and in place (Gauss-Seidel), and holds only the
//! elections whose inputs changed since their last one: the others would
//! return what they already wrote, so the annotations, the convergence
//! trace and the `refine.*` counters are those of sweeping everything.

pub mod engine;
pub mod exceptions;
pub mod hidden;
pub mod interface;
#[cfg(test)]
mod oracle;
pub mod realloc;
pub mod router;
pub mod votes;

pub use engine::{refine, CONVERGENCE_HASH_SEED};
