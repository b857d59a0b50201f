//! **serve**: the router-ownership query service.
//!
//! A dependency-light multithreaded TCP server answering point and bulk
//! queries against a loaded [`snapshot::Snapshot`]: which AS operates the
//! router behind this interface, what does longest-prefix-match say about
//! this address, which interfaces share a router, which interdomain links
//! name this AS. The access pattern mirrors what ITDK consumers and
//! high-rate probers need when correlating live probe data against an
//! ownership map.
//!
//! Design constraints, in order:
//!
//! * **No async runtime.** The workspace vendors its dependency graph and
//!   carries no tokio; the server is a plain [`std::net::TcpListener`] with
//!   a crossbeam scoped worker pool — the same primitive the pipeline's
//!   `pool` crate uses, under a justified
//!   `#[expect(clippy::disallowed_methods)]` of its own.
//! * **Protocol = newline-delimited JSON** ([`protocol`]): one request
//!   object per line, one response object per line, connections are
//!   persistent. Verbs: `lookup_addr`, `lookup_prefix`, `router`,
//!   `links_of_as`, `stats`.
//! * **Telemetry through `obs`** — request/connection/error counters flow
//!   through the existing [`obs::Recorder`] as *execution-dependent*
//!   counters (`add_exec`): they depend on external traffic, so they must
//!   never enter the deterministic counter class the thread-count
//!   determinism suite compares.
//! * **Graceful shutdown** — a [`ShutdownHandle`] flips a flag and nudges
//!   the accept loop; workers drain their in-flight connections and join.
//! * **Per-connection read timeouts** so an idle or stalled client cannot
//!   pin a worker forever.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use metrics::ServeMetrics;
pub use protocol::{dispatch, LinkJson, Request, Response, StatsJson, VerbStatsJson};
pub use server::{RunningServer, Server, ServerConfig, ShutdownHandle};
