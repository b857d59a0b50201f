//! The churn driver: steps a schedule epoch by epoch, re-probing only the
//! dirty `(vp, dst)` pairs and re-converging only the dirty refinement
//! shards, and proves every epoch's output byte-identical to a full
//! recompute.
//!
//! # Incremental machinery
//!
//! Two caches persist across epochs:
//!
//! * the **pair cache** maps each `(vp, dst)` pair to its last trace and
//!   the set of ASes that measurement depends on
//!   ([`traversed_ases`]). After an epoch's events, a pair is *dirty* —
//!   re-probed — iff interdomain routing changed, the pair is new to the
//!   probe matrix, or its AS set intersects the events' touched set;
//!   everything else replays its cached trace verbatim (the traceroute
//!   crate's untouched-pairs contract test backs this).
//! * the **shard cache** ([`ShardCache`]) replays converged refinement
//!   outcomes for shards whose fingerprint is unchanged; see
//!   [`refine_incremental`].
//!
//! # Verification
//!
//! Every epoch the driver *also* runs the naive path — full campaign, full
//! [`Bdrmapit::run`] — freezes both results into `bdrmapit.snapshot/v1`
//! bytes, and aborts unless they are identical. The per-epoch cost gap
//! (probes + shards converged) is what `bdrmapit.bench-churn/v1` reports.

use crate::bench::{report_delta, EpochCost};
use crate::schedule::ChurnSchedule;
use alias::{observed_addresses, resolve_midar, resolve_midar_with_obs};
use as_rel::infer::{infer_relationships, InferenceConfig};
use as_rel::CustomerCones;
use bdrmapit_core::refine::{refine_incremental, ShardCache};
use bdrmapit_core::Bdrmapit;
use bdrmapit_core::{lasthop, Annotated, AnnotationState, Config, IrGraph};
use bgp::IpToAs;
use net_types::Asn;
use obs::names;
use obs::Clock as _;
use obs::RunReport;
use snapshot::SnapshotData;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use topo_gen::{GeneratorConfig, Internet};
use traceroute::sim::{
    destinations, probe_campaign_in_pool, probe_pairs_in_pool, select_vps, traversed_ases,
    ProbeConfig,
};
use traceroute::Trace;

/// Knobs for one churn run.
#[derive(Clone, Debug)]
pub struct ChurnOptions {
    /// Churn epochs after the baseline (the run produces `epochs + 1`
    /// snapshots).
    pub epochs: usize,
    /// Vantage points, selected once at the baseline and fixed thereafter.
    pub vps: usize,
    /// Worker threads for both paths (0 = all cores). Snapshots are
    /// byte-identical for every value.
    pub threads: usize,
    /// Topology, schedule, VP-selection, and alias seed.
    pub seed: u64,
    /// Probe campaign configuration (shared by both paths).
    pub probe: ProbeConfig,
    /// Inference configuration; `threads` is overridden from
    /// [`ChurnOptions::threads`].
    pub core: Config,
}

impl ChurnOptions {
    /// Defaults for a run: standard probe and inference configuration.
    pub fn new(epochs: usize, vps: usize, threads: usize, seed: u64) -> ChurnOptions {
        ChurnOptions {
            epochs,
            vps,
            threads,
            seed,
            probe: ProbeConfig::default(),
            core: Config::default(),
        }
    }
}

/// What one epoch produced.
#[derive(Clone, Debug)]
pub struct EpochOutcome {
    /// Epoch index (0 = baseline).
    pub epoch: usize,
    /// Scheduled events, described (applied and skipped alike).
    pub events: Vec<String>,
    /// Events applied.
    pub applied: usize,
    /// Events refused at apply time.
    pub skipped: usize,
    /// Whether interdomain routing changed this epoch.
    pub rib_changed: bool,
    /// Pairs re-probed.
    pub dirty_pairs: usize,
    /// Pairs in the epoch's probe matrix.
    pub total_pairs: usize,
    /// Shards re-converged.
    pub dirty_shards: usize,
    /// Shards in the epoch's plan.
    pub total_shards: usize,
    /// Incremental-path cost.
    pub incremental: EpochCost,
    /// Full-recompute cost.
    pub full: EpochCost,
    /// The epoch's `bdrmapit.snapshot/v1` bytes (identical on both paths).
    pub snapshot: Vec<u8>,
    /// The epoch's slice of the session recorder (see
    /// [`report_delta`]).
    pub report: RunReport,
}

/// A completed churn run.
#[derive(Clone, Debug)]
pub struct ChurnRun {
    /// Per-epoch outcomes, baseline first.
    pub epochs: Vec<EpochOutcome>,
    /// The schedule that was executed.
    pub schedule: ChurnSchedule,
}

/// A cached measurement for one `(vp, dst)` pair.
struct PairInfo {
    trace: Trace,
    ases: BTreeSet<Asn>,
}

/// Milliseconds elapsed since `start_nanos` on `clock`.
#[allow(clippy::cast_precision_loss)]
fn elapsed_ms(clock: &obs::MonotonicClock, start_nanos: u64) -> f64 {
    clock.now_nanos().saturating_sub(start_nanos) as f64 / 1e6
}

/// Runs the full churn loop. All incremental-path phases record through
/// `rec` (per-epoch reports are carved out by snapshot deltas); the
/// verification path runs silently. Returns `Err` the moment any epoch's
/// incremental output is not byte-identical to the full recompute.
pub fn run_churn(
    gen: GeneratorConfig,
    opts: &ChurnOptions,
    rec: &obs::Recorder,
) -> Result<ChurnRun, String> {
    let mut net = Internet::generate_with_obs(gen, rec);
    // Wall times (informational cost fields only) go through obs's clock
    // abstraction — determinism policy bans direct clock reads out here.
    let clock = obs::MonotonicClock::new();
    let schedule = ChurnSchedule::generate(&net, opts.seed, opts.epochs);
    let wp = Arc::new(pool::WorkerPool::with_recorder(opts.threads, rec.clone()));
    let full_wp = Arc::new(pool::WorkerPool::new(opts.threads));
    let silent = obs::Recorder::disabled();
    let vps = select_vps(&net, opts.vps, &[], opts.seed);
    let cfg = Config {
        threads: opts.threads,
        ..opts.core.clone()
    };

    let mut rib = net.build_rib();
    let mut ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
    let mut rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
    let mut cones = CustomerCones::compute(&rels);

    let mut pair_cache: BTreeMap<(usize, u32), PairInfo> = BTreeMap::new();
    let mut shard_cache = ShardCache::new();
    let mut epochs_out = Vec::with_capacity(opts.epochs + 1);
    let mut report_mark = rec.report();

    for epoch in 0..=opts.epochs {
        rec.inc(names::CHURN_EPOCHS);
        let epoch_span = rec.span(names::PHASE_CHURN_EPOCH);
        let inc_start = clock.now_nanos();

        // 1. Apply this epoch's events (none at the baseline).
        let mut events = Vec::new();
        let (mut applied, mut skipped) = (0usize, 0usize);
        let mut touched: BTreeSet<Asn> = BTreeSet::new();
        let mut rib_changed = false;
        if epoch > 0 {
            for ev in &schedule.epochs[epoch - 1] {
                events.push(ev.describe());
                let out = net.apply_event(ev);
                if out.applied {
                    applied += 1;
                    touched.extend(out.touched.iter().copied());
                    rib_changed |= out.rib_changed;
                } else {
                    skipped += 1;
                }
            }
        }
        rec.add(names::CHURN_EVENTS_APPLIED, applied as u64);
        rec.add(names::CHURN_EVENTS_SKIPPED, skipped as u64);
        if rib_changed {
            rec.inc(names::CHURN_RIB_REBUILDS);
            rib = net.build_rib();
            ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
            rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
            cones = CustomerCones::compute(&rels);
        }

        // 2. The epoch's probe matrix and its dirty subset. Destinations are
        // re-enumerated — router additions can shift the live-biased
        // sampling — and the matrix stays vp-major, so the spliced corpus
        // below is ordered exactly like a full campaign's.
        let dests = destinations(&net, &opts.probe);
        let pairs: Vec<(usize, u32)> = (0..vps.len())
            .flat_map(|v| dests.iter().map(move |&d| (v, d)))
            .collect();
        let dirty: Vec<(usize, u32)> = pairs
            .iter()
            .copied()
            .filter(|key| {
                rib_changed
                    || pair_cache
                        .get(key)
                        .is_none_or(|info| !info.ases.is_disjoint(&touched))
            })
            .collect();
        rec.add(names::CHURN_DIRTY_PAIRS, dirty.len() as u64);
        rec.add(names::CHURN_CLEAN_PAIRS, (pairs.len() - dirty.len()) as u64);

        // 3. Re-probe the dirty pairs; splice fresh traces over the cache.
        let fresh = {
            let _span = rec.span(names::PHASE_TRACEROUTE);
            let router_pairs: Vec<_> = dirty.iter().map(|&(v, d)| (vps[v], d)).collect();
            probe_pairs_in_pool(&net, &router_pairs, &opts.probe, &wp)
        };
        let mut next_cache: BTreeMap<(usize, u32), PairInfo> = BTreeMap::new();
        for (key, trace) in dirty.iter().copied().zip(fresh) {
            let ases = traversed_ases(&net, vps[key.0], key.1);
            next_cache.insert(key, PairInfo { trace, ases });
        }
        for &key in &pairs {
            next_cache.entry(key).or_insert_with(|| {
                pair_cache
                    .remove(&key)
                    .expect("clean pair must be cached from the previous epoch")
            });
        }
        pair_cache = next_cache;

        // 4. The spliced corpus, filtered exactly like a full campaign.
        let corpus: Vec<Trace> = pairs
            .iter()
            .map(|key| pair_cache[key].trace.clone())
            .filter(|t| t.responsive_count() > 0)
            .collect();

        // 5. Aliases are re-resolved from scratch: alias sets are global
        // (any changed trace can re-cluster distant interfaces), and the
        // resolver is cheap next to probing.
        let observed = observed_addresses(&corpus);
        let aliases = resolve_midar_with_obs(&net, &observed, 0.9, opts.seed, rec);

        // 6. Incremental inference: rebuild the graph, freeze last hops,
        // then re-converge only the dirty shards.
        let graph = {
            let _span = rec.span(names::PHASE_GRAPH);
            IrGraph::build_in_pool(&corpus, &aliases, &ip2as, &cfg, &rels, &cones, &wp, rec)
        };
        let mut state = AnnotationState::new(&graph);
        if cfg.enable_last_hop {
            let _span = rec.span(names::PHASE_LASTHOP);
            lasthop::annotate_last_hops(&graph, &rels, &cones, &mut state);
        }
        let stats = {
            let _span = rec.span(names::PHASE_REFINE);
            refine_incremental(
                &graph,
                &rels,
                &cones,
                &cfg,
                &mut state,
                rec,
                &mut shard_cache,
            )
        };
        let total_shards = graph.shards.shards.len();
        let annotated = Annotated { graph, state };
        let snap_inc = snapshot::to_bytes(&SnapshotData::from_annotated(
            &annotated,
            &rib.origin_table(),
        ));
        let incremental = EpochCost::new(
            dirty.len() as u64,
            stats.dirty_shards as u64,
            elapsed_ms(&clock, inc_start),
        );
        drop(epoch_span);

        // 7. The naive path, for cost comparison and byte-level proof.
        let full_start = clock.now_nanos();
        let full_corpus = probe_campaign_in_pool(&net, &vps, &opts.probe, &full_wp, &silent);
        if full_corpus != corpus {
            return Err(format!(
                "epoch {epoch}: spliced corpus diverges from the full campaign \
                 ({} vs {} traces)",
                corpus.len(),
                full_corpus.len()
            ));
        }
        let full_aliases = resolve_midar(&net, &observed_addresses(&full_corpus), 0.9, opts.seed);
        if full_aliases != aliases {
            return Err(format!("epoch {epoch}: alias sets diverge"));
        }
        let full_result = Bdrmapit::new(cfg.clone()).with_pool(full_wp.clone()).run(
            &full_corpus,
            &full_aliases,
            &ip2as,
            &rels,
        );
        let snap_full = snapshot::to_bytes(&SnapshotData::from_annotated(
            &full_result,
            &rib.origin_table(),
        ));
        let full = EpochCost::new(
            pairs.len() as u64,
            full_result.graph.shards.shards.len() as u64,
            elapsed_ms(&clock, full_start),
        );
        if snap_full != snap_inc {
            return Err(format!(
                "epoch {epoch}: incremental snapshot is not byte-identical to the \
                 full recompute"
            ));
        }

        let cumulative = rec.report();
        let report = report_delta(&report_mark, &cumulative);
        report_mark = cumulative;
        epochs_out.push(EpochOutcome {
            epoch,
            events,
            applied,
            skipped,
            rib_changed,
            dirty_pairs: dirty.len(),
            total_pairs: pairs.len(),
            dirty_shards: stats.dirty_shards,
            total_shards,
            incremental,
            full,
            snapshot: snap_inc,
            report,
        });
    }
    Ok(ChurnRun {
        epochs: epochs_out,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(epochs: usize, threads: usize, seed: u64) -> ChurnOptions {
        ChurnOptions {
            probe: ProbeConfig {
                per_prefix_cap: 2,
                ..ProbeConfig::default()
            },
            ..ChurnOptions::new(epochs, 4, threads, seed)
        }
    }

    #[test]
    fn baseline_epoch_probes_everything_and_matches_full() {
        let opts = tiny_opts(0, 1, 41);
        let run = run_churn(GeneratorConfig::tiny(41), &opts, &obs::Recorder::disabled()).unwrap();
        assert_eq!(run.epochs.len(), 1);
        let e = &run.epochs[0];
        assert_eq!(e.dirty_pairs, e.total_pairs, "cold start probes everything");
        assert_eq!(e.dirty_shards, e.total_shards);
        assert_eq!(e.incremental.work, e.full.work);
        assert!(!e.snapshot.is_empty());
    }

    #[test]
    fn churn_epochs_cost_less_than_full_recompute() {
        let opts = tiny_opts(3, 1, 42);
        let run = run_churn(GeneratorConfig::tiny(42), &opts, &obs::Recorder::disabled()).unwrap();
        assert_eq!(run.epochs.len(), 4);
        for e in &run.epochs[1..] {
            assert!(e.applied + e.skipped >= 1, "every churn epoch has events");
            if !e.rib_changed {
                assert!(
                    e.incremental.work < e.full.work,
                    "epoch {}: {} !< {}",
                    e.epoch,
                    e.incremental.work,
                    e.full.work
                );
            }
        }
    }

    #[test]
    fn per_epoch_reports_carry_churn_counters() {
        let opts = tiny_opts(2, 1, 43);
        let rec = obs::Recorder::new(false);
        let run = run_churn(GeneratorConfig::tiny(43), &opts, &rec).unwrap();
        for e in &run.epochs {
            assert_eq!(e.report.counters[names::CHURN_EPOCHS], 1);
            assert!(e.report.phases.contains_key(names::PHASE_CHURN_EPOCH));
            assert!(e.report.phases.contains_key(names::PHASE_REFINE));
        }
        // The session recorder holds the cumulative view.
        let total = rec.report();
        assert_eq!(total.counters[names::CHURN_EPOCHS], 3);
    }
}
