//! Clock discipline for the tracing layer: every trace timestamp comes from
//! the recorder's one [`obs::Clock`], and per-track timestamps stay
//! monotone even when spans on different tracks overlap arbitrarily.

use obs::trace::validate_chrome_json;
use obs::{names, MockClock, Recorder};

#[test]
fn overlapping_spans_on_shared_clock_stay_monotone_per_track() {
    let clock = MockClock::new();
    let rec = Recorder::with_clock_tracing(false, Box::new(clock.clone()), 256);
    let tracer = rec.tracer();

    // Two worker tracks plus the main track, all reading the same mock
    // clock, with spans interleaved so no single track sees every tick:
    // main opens, worker 0 opens, worker 1 opens+closes inside, worker 0
    // closes after main's nested instant.
    let mut w0 = tracer.worker(names::TRACK_POOL_WORKER, 0);
    let mut w1 = tracer.worker(names::TRACK_POOL_WORKER, 1);
    tracer.begin_main(names::PHASE_REFINE, 0);
    clock.advance(1_000);
    w0.begin(names::EV_POOL_TASK, 0);
    clock.advance(1_000);
    w1.begin(names::EV_POOL_TASK, 1);
    clock.advance(500);
    w1.instant(names::EV_CAMPAIGN_DESTS, 1);
    w1.end(names::EV_POOL_TASK);
    clock.advance(500);
    tracer.instant_main(names::EV_CAMPAIGN_DESTS, 42);
    clock.advance(1_000);
    w0.end(names::EV_POOL_TASK);
    tracer.end_main(names::PHASE_REFINE);
    tracer.submit(w0);
    tracer.submit(w1);

    let doc = tracer.finish();
    assert_eq!(doc.dropped(), 0);

    // The validator enforces per-tid monotone timestamps and strict
    // begin/end pairing; with a shared MockClock that only ever advances,
    // an export that read any other time source would fail here.
    let json = doc.to_chrome_json();
    let check = validate_chrome_json(&json).expect("interleaved trace is valid");
    assert_eq!(check.tracks, 3, "main + two worker tracks");
    assert_eq!(check.dropped, 0);

    // Cross-track ordering is also exact, not just per-track: the mock
    // clock gives every event a known absolute time. Worker 1's span sits
    // strictly inside worker 0's.
    let all: Vec<_> = doc
        .tracks
        .iter()
        .flat_map(|t| t.events.iter().map(move |e| (t.name.clone(), e)))
        .collect();
    let at = |track: &str, kind: obs::trace::EventKind| {
        all.iter()
            .find(|(name, e)| name == track && e.kind == kind)
            .map(|(_, e)| e.t_nanos)
            .unwrap()
    };
    use obs::trace::EventKind::{Begin, End};
    assert_eq!(at("pool.worker0", Begin), 1_000);
    assert_eq!(at("pool.worker1", Begin), 2_000);
    assert_eq!(at("pool.worker1", End), 2_500);
    assert_eq!(at("pool.worker0", End), 4_000);
    assert!(at("pool.worker1", End) < at("pool.worker0", End));
}

#[test]
fn mock_clock_is_shared_not_copied_into_worker_tracers() {
    // Advancing the clock between a worker tracer's creation and its first
    // event must be visible: the tracer holds the clock, not a snapshot.
    let clock = MockClock::new();
    let rec = Recorder::with_clock_tracing(false, Box::new(clock.clone()), 64);
    let tracer = rec.tracer();
    let mut w = tracer.worker(names::TRACK_POOL_WORKER, 0);
    clock.advance(7_000);
    w.instant(names::EV_POOL_TASK, 1);
    tracer.submit(w);
    let doc = tracer.finish();
    let ev = doc
        .tracks
        .iter()
        .flat_map(|t| t.events.iter())
        .next()
        .expect("one event");
    assert_eq!(ev.t_nanos, 7_000);
}
