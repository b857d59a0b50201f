//! Writes `BENCH_serve.json`: throughput and latency percentiles for the
//! snapshot query service under concurrent load.
//!
//! The harness runs the synthetic pipeline at tiny scale, freezes the result
//! into an in-memory snapshot, serves it on a loopback port, and drives it
//! with several persistent-connection clients issuing a mixed verb workload.
//! Latency is measured per request through the observability clock
//! ([`obs::MonotonicClock`] — the workspace's one sanctioned wall-clock
//! read), so this binary introduces no new nondeterminism call sites.
//! Usage: `bench-serve [OUTPUT_PATH]` (default `BENCH_serve.json`).

#![forbid(unsafe_code)]

use bdrmapit_core::Config;
use eval::experiments::run_bdrmapit;
use eval::Scenario;
use obs::Clock;
use serde::Serialize;
use serve::{Client, Request, Server, ServerConfig};
use snapshot::{Snapshot, SnapshotData};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use topo_gen::GeneratorConfig;

const SEED: u64 = 2018;
const VPS: usize = 8;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 2_500;

/// The benchmark document: workload parameters, headline numbers, and the
/// server-side run report (request/connection counters).
#[derive(Serialize)]
struct BenchDoc {
    schema: &'static str,
    scale: &'static str,
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    total_requests: usize,
    errors: usize,
    wall_ms: f64,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    snapshot_load_ms: f64,
    /// The server's own view of the run: the `stats` verb's answer after
    /// the load completes, carrying uptime and per-verb p50/p99.
    server_stats: serve::StatsJson,
    server_report: obs::RunReport,
}

/// The verb mix one client cycles through: dominated by point lookups (the
/// hot path), with the heavier verbs sampled in.
fn request_for(snap: &Snapshot, i: usize) -> Request {
    let anns = &snap.data().annotations;
    let ann = anns[i % anns.len()];
    match i % 10 {
        0..=5 => {
            let mut r = Request::verb("lookup_addr");
            r.addr = Some(net_types::format_ipv4(ann.addr));
            r
        }
        6 | 7 => {
            let mut r = Request::verb("lookup_prefix");
            r.addr = Some(net_types::format_ipv4(ann.addr));
            r
        }
        8 => {
            let mut r = Request::verb("router");
            r.ir = Some(ann.ir);
            r
        }
        _ => {
            let mut r = Request::verb("links_of_as");
            r.asn = Some(ann.asn.0);
            r
        }
    }
}

fn percentile_us(sorted_nanos: &[u64], p: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_nanos.len() - 1) as f64 * p).round() as usize;
    sorted_nanos[rank] as f64 / 1_000.0
}

fn main() -> ExitCode {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let clock = obs::MonotonicClock::new();

    // Produce a realistic snapshot: tiny-scale pipeline, frozen to bytes,
    // then loaded back through the real parse+index path (timed).
    let scenario = Scenario::build(GeneratorConfig::tiny(SEED));
    let bundle = scenario.campaign(VPS, true, SEED);
    let result = run_bdrmapit(&scenario, &bundle, Config::default());
    let data = SnapshotData::from_annotated(&result, &scenario.rib.origin_table());
    let bytes = snapshot::to_bytes(&data);
    let load_start = clock.now_nanos();
    let snap = match Snapshot::from_bytes(&bytes) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("bench-serve: snapshot does not load: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot_load_ms = (clock.now_nanos() - load_start) as f64 / 1e6;

    let rec = obs::Recorder::new(false);
    let server = match Server::bind(
        "127.0.0.1:0",
        Arc::clone(&snap),
        ServerConfig::default(),
        rec.clone(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench-serve: binding loopback: {e}");
            return ExitCode::FAILURE;
        }
    };
    let running = server.spawn_background();
    let addr = running.addr();

    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(CLIENTS * REQUESTS_PER_CLIENT));
    let errors: Mutex<usize> = Mutex::new(0);
    let bench_start = clock.now_nanos();
    #[expect(
        clippy::disallowed_methods,
        reason = "benchmark load generation; client concurrency exercises the server's worker \
                  pool and never feeds inference"
    )]
    crossbeam::thread::scope(|s| {
        for c in 0..CLIENTS {
            let snap = &snap;
            let latencies = &latencies;
            let errors = &errors;
            let clock = &clock;
            s.spawn(move |_| {
                let mut local = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut failed = 0usize;
                let mut client = match Client::connect(addr) {
                    Ok(cl) => cl,
                    Err(e) => {
                        eprintln!("bench-serve: client {c} connect: {e}");
                        *errors.lock().unwrap() += REQUESTS_PER_CLIENT;
                        return;
                    }
                };
                for i in 0..REQUESTS_PER_CLIENT {
                    let req = request_for(snap, c + i * CLIENTS);
                    let t0 = clock.now_nanos();
                    match client.call(&req) {
                        Ok(resp) if resp.ok => local.push(clock.now_nanos() - t0),
                        _ => failed += 1,
                    }
                }
                latencies.lock().unwrap().extend(local);
                *errors.lock().unwrap() += failed;
            });
        }
    })
    .expect("bench client panicked");
    let wall_ms = (clock.now_nanos() - bench_start) as f64 / 1e6;

    // Ask the server itself how the run looked before shutting it down; the
    // per-verb table doubles as a check that the whole verb mix arrived.
    let server_stats = Client::connect(addr)
        .and_then(|mut c| c.call(&Request::verb("stats")))
        .ok()
        .and_then(|r| r.stats);
    running.shutdown();
    let Some(server_stats) = server_stats else {
        eprintln!("bench-serve: final stats request failed");
        return ExitCode::FAILURE;
    };
    if server_stats
        .verbs
        .as_ref()
        .is_none_or(std::collections::BTreeMap::is_empty)
    {
        eprintln!("bench-serve: stats response carries no per-verb metrics");
        return ExitCode::FAILURE;
    }

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let errors = errors.into_inner().unwrap();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let doc = BenchDoc {
        schema: "bdrmapit.bench-serve/v1",
        scale: "tiny",
        seed: SEED,
        clients: CLIENTS,
        requests_per_client: REQUESTS_PER_CLIENT,
        total_requests: total,
        errors,
        wall_ms,
        throughput_rps: lat.len() as f64 / (wall_ms / 1_000.0),
        p50_us: percentile_us(&lat, 0.50),
        p99_us: percentile_us(&lat, 0.99),
        snapshot_load_ms,
        server_stats,
        server_report: rec.report(),
    };

    if errors > 0 {
        eprintln!("bench-serve: {errors}/{total} requests failed");
        return ExitCode::FAILURE;
    }
    let text = serde_json::to_string_pretty(&doc).expect("bench document serializes");
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("bench-serve: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out}: {:.0} req/s, p50 {:.0} us, p99 {:.0} us, load {:.1} ms",
        doc.throughput_rps, doc.p50_us, doc.p99_us, doc.snapshot_load_ms
    );
    ExitCode::SUCCESS
}
