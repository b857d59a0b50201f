//! The churn driver: steps a schedule epoch by epoch, re-probing only the
//! dirty `(vp, dst)` pairs, annotating the spliced corpus with
//! [`Bdrmapit::run`], and proving every epoch's output byte-identical to a
//! full recompute.
//!
//! # Incremental machinery
//!
//! One cache persists across epochs: the **pair cache** ([`PairCache`])
//! holds the previous epoch's probe matrix: its sorted destinations, one
//! unfiltered [`Corpus`] row per `(vp, dst)` pair in vp-major order, and
//! per pair the sorted set of ASes that measurement depends on
//! ([`traversed_ases`](traceroute::sim::traversed_ases)), in one flat
//! [`AsSets`] column. A re-probed pair's set comes back from the pool with
//! its row, computed from the walk that synthesized it. After an epoch's
//! events, a pair is *dirty* — re-probed — iff interdomain routing
//! changed, the pair is new to the probe matrix (its destination is not
//! among the cached ones), or its AS set intersects the events' touched
//! set; everything else replays its cached row verbatim (the traceroute
//! crate's untouched-pairs contract test backs this). The epoch's corpus
//! is spliced by copying rows, fresh or cached, in pair order.
//!
//! The cache is a [`CorpusBuilder`] whose address numbering persists, so
//! a replayed row is copied as it is and only a fresh row is numbered. The
//! spliced corpus, its responsive rows, is sealed once per epoch on the
//! driver's pool ([`Corpus::concat`]); alias resolution and phase 1 both
//! read the sealed corpus's address table.
//! Phases 1–3 run from scratch every epoch, through the same entry point
//! as the full path.
//!
//! # Verification
//!
//! Every epoch the driver *also* runs the naive path — full campaign, full
//! [`Bdrmapit::run`] — freezes both results into `bdrmapit.snapshot/v1`
//! bytes, and aborts unless they are identical. The per-epoch cost gap
//! (probes executed) is what `bdrmapit.bench-churn/v2` reports.

use crate::bench::{report_delta, EpochCost};
use crate::schedule::ChurnSchedule;
use alias::{observed_addresses, resolve_corpus, resolve_midar};
use as_rel::infer::{infer_relationships, InferenceConfig};
use bdrmapit_core::{Bdrmapit, Config};
use bgp::IpToAs;
use net_types::{AsSets, Asn};
use obs::names;
use obs::Clock as _;
use obs::RunReport;
use snapshot::SnapshotData;
use std::collections::BTreeSet;
use std::sync::Arc;
use topo_gen::{GeneratorConfig, Internet, RouterId};
use traceroute::sim::{
    destinations, probe_campaign_in_pool, probe_pairs_in_pool, select_vps, ProbeConfig,
};
use traceroute::{Corpus, CorpusBuilder};

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
    /// Always 1: refinement converges the whole graph, from scratch, every
    /// epoch. Kept for readers of the former per-shard ratio (the
    /// benchmark's `churn.dirty_shard_ratio`).
    pub dirty_shards: usize,
    /// Always 1, as `dirty_shards`.
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

/// The previous epoch's probe matrix, measured: pair `(v, dests[j])` is
/// pair index `v * dests.len() + j`.
struct PairCache {
    /// The epoch's destinations, sorted.
    dests: Vec<u32>,
    /// One row per pair, unresponsive ones included, in pair order. Its
    /// numbering persists from epoch to epoch, so a replayed row is copied
    /// as it is.
    rows: CorpusBuilder,
    /// Per pair, its traversed-AS set.
    ases: AsSets,
}

impl PairCache {
    fn new() -> PairCache {
        PairCache {
            dests: Vec::new(),
            rows: CorpusBuilder::new(),
            ases: AsSets::new(),
        }
    }

    /// The pair index of `(v, dst)`, if it was in the cached matrix.
    fn find(&self, v: usize, dst: u32) -> Option<usize> {
        let j = self.dests.binary_search(&dst).ok()?;
        Some(v * self.dests.len() + j)
    }
}

/// Whether two sorted slices have no element in common.
fn disjoint(a: &[Asn], b: &[Asn]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
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
    let net = Internet::generate_with_obs(gen, rec);
    let schedule = ChurnSchedule::generate(&net, opts.seed, opts.epochs);
    run_schedule(net, schedule, opts, rec)
}

/// [`run_churn`] on a given Internet and schedule; `opts.epochs` is
/// ignored in favour of the schedule's length.
fn run_schedule(
    mut net: Internet,
    schedule: ChurnSchedule,
    opts: &ChurnOptions,
    rec: &obs::Recorder,
) -> Result<ChurnRun, String> {
    // Wall times (informational cost fields only) go through obs's clock
    // abstraction — determinism policy bans direct clock reads out here.
    let clock = obs::MonotonicClock::new();
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

    let mut cache = PairCache::new();
    let mut epochs_out = Vec::with_capacity(schedule.epochs.len() + 1);
    let mut report_mark = rec.report();

    for epoch in 0..=schedule.epochs.len() {
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
        }

        // 2. The epoch's probe matrix and its dirty subset. Destinations are
        // re-enumerated — router additions can shift the live-biased
        // sampling — and the matrix stays vp-major, so the spliced corpus
        // below is ordered exactly like a full campaign's. Each pair's
        // source is its cached row, or `None` when it must be re-probed.
        let splice_span = rec.span(names::PHASE_CHURN_SPLICE);
        let dests = destinations(&net, &opts.probe);
        let n_pairs = vps.len() * dests.len();
        let pair = |p: usize| (p / dests.len(), dests[p % dests.len()]);
        let touched: Vec<Asn> = touched.into_iter().collect();
        let source: Vec<Option<usize>> = (0..n_pairs)
            .map(|p| {
                let (v, dst) = pair(p);
                cache
                    .find(v, dst)
                    .filter(|&o| !rib_changed && disjoint(cache.ases.get(o), &touched))
            })
            .collect();
        let dirty: Vec<(RouterId, u32)> = (0..n_pairs)
            .filter(|&p| source[p].is_none())
            .map(|p| {
                let (v, dst) = pair(p);
                (vps[v], dst)
            })
            .collect();
        drop(splice_span);
        rec.add(names::CHURN_DIRTY_PAIRS, dirty.len() as u64);
        rec.add(names::CHURN_CLEAN_PAIRS, (n_pairs - dirty.len()) as u64);

        // 3. Re-probe the dirty pairs.
        let fresh = {
            let _span = rec.span(names::PHASE_TRACEROUTE);
            probe_pairs_in_pool(&net, &dirty, &opts.probe, &wp)
        };

        // 4. The cache and the spliced corpus: every pair's row, fresh or
        // cached, in pair order; the corpus keeps the responsive ones,
        // exactly like a full campaign.
        let splice_span = rec.span(names::PHASE_CHURN_SPLICE);
        let mut ases = AsSets::new();
        ases.reserve(n_pairs);
        let mut fresh_rows = fresh.rows().enumerate();
        let picks = source.iter().map(|src| match *src {
            Some(o) => {
                ases.push(cache.ases.get(o));
                Ok(o)
            }
            None => {
                let (f, row) = fresh_rows.next().expect("one fresh row per dirty pair");
                ases.push(fresh.ases.get(f));
                Err(row)
            }
        });
        cache.rows = cache
            .rows
            .select(picks)
            .expect("a cached row fits a corpus");
        (cache.dests, cache.ases) = (dests, ases);
        let spliced = cache.rows.responsive_rows();
        drop(splice_span);

        // 5. The spliced corpus is sealed once, on the pool, for both of
        // its readers below. Aliases are re-resolved from scratch: alias
        // sets are global (any changed trace can re-cluster distant
        // interfaces), and the resolver is cheap next to probing.
        let corpus = Corpus::concat(vec![spliced], &wp).expect("a cached row fits a corpus");
        let aliases = resolve_corpus(&net, &corpus, 0.9, opts.seed, rec);

        // 6. Phases 1–3 on the spliced corpus.
        let annotated = Bdrmapit::new(cfg.clone())
            .with_obs(rec.clone())
            .with_pool(wp.clone())
            .run(&corpus, &aliases, &ip2as, &rels);
        let snap_inc = snapshot::to_bytes(&SnapshotData::from_annotated(
            &annotated,
            &rib.origin_table(),
        ));
        let incremental = EpochCost {
            probes: dirty.len() as u64,
            wall_ms: elapsed_ms(&clock, inc_start),
        };
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
        let full = EpochCost {
            probes: n_pairs as u64,
            wall_ms: elapsed_ms(&clock, full_start),
        };
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
            total_pairs: n_pairs,
            dirty_shards: 1,
            total_shards: 1,
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
        assert_eq!(e.incremental.probes, e.full.probes);
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
                    e.incremental.probes < e.full.probes,
                    "epoch {}: {} !< {}",
                    e.epoch,
                    e.incremental.probes,
                    e.full.probes
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
            // Re-probed rows reach the corpus unsealed: one seal per epoch.
            assert_eq!(e.report.phases[names::CORPUS_INDEX].count, 1);
        }
        // The session recorder holds the cumulative view.
        let total = rec.report();
        assert_eq!(total.counters[names::CHURN_EPOCHS], 3);
    }

    /// A router addition that changes the destination sample: pairs whose
    /// destination left the matrix vanish, new destinations are dirty, and
    /// the spliced corpus still equals the full campaign every epoch.
    #[test]
    fn router_add_that_shifts_destinations_keeps_the_proof() {
        let gen = GeneratorConfig::tiny(44);
        let opts = tiny_opts(0, 2, 44);
        let base = destinations(&Internet::generate(gen.clone()), &opts.probe);
        let net = Internet::generate(gen.clone());
        let add = net
            .topology
            .as_routers
            .iter()
            .map(|(&asn, routers)| topo_gen::TopologyEvent::RouterAdd {
                asn,
                attach: routers[0],
            })
            .find(|ev| {
                let mut probe = Internet::generate(gen.clone());
                let out = probe.apply_event(ev);
                out.applied && !out.rib_changed && destinations(&probe, &opts.probe) != base
            })
            .expect("some router addition shifts the destinations");
        let schedule = ChurnSchedule {
            epochs: vec![vec![add], vec![]],
        };
        let run = run_schedule(net, schedule, &opts, &obs::Recorder::disabled()).unwrap();
        let e = &run.epochs[1];
        assert_eq!(e.applied, 1);
        assert!(e.dirty_pairs > 0 && e.dirty_pairs < e.total_pairs);
        assert_eq!(
            run.epochs[2].dirty_pairs, 0,
            "a quiet epoch replays every pair"
        );
        assert_eq!(
            run.epochs[2].snapshot, e.snapshot,
            "a quiet epoch reproduces the previous epoch's snapshot"
        );
    }
}
