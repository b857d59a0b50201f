//! The columnar corpus against the owned `Trace` records it replaces, and
//! the JSON-lines format against a file written before the corpus existed.

use proptest::prelude::*;
use traceroute::io::{read_jsonl, write_jsonl};
use traceroute::{Corpus, Hop, ReplyType, StopReason, Trace};

/// Written by the `Vec<Trace>` serde writer: `*` hops, all three reply
/// types, all four stop reasons, three monitors and an escaped name.
const FIXTURE: &[u8] = include_bytes!("data/traces.jsonl");

#[test]
fn fixture_roundtrips_byte_for_byte() {
    let corpus = read_jsonl(FIXTURE).expect("fixture parses");
    assert_eq!(corpus.len(), 11);
    let mut out = Vec::new();
    write_jsonl(&mut out, &corpus).unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        std::str::from_utf8(FIXTURE).unwrap()
    );
}

#[test]
fn fixture_rows_match_the_serde_records() {
    let corpus = read_jsonl(FIXTURE).unwrap();
    let text = std::str::from_utf8(FIXTURE).unwrap();
    for (row, line) in corpus.iter().zip(text.lines()) {
        let record: Trace = serde_json::from_str(line).unwrap();
        assert_eq!(row.to_owned(), record);
        assert_eq!(serde_json::to_string(&record).unwrap(), line);
    }
}

fn hop() -> impl Strategy<Value = Option<Hop>> {
    prop_oneof![
        Just(None),
        (any::<u32>(), 0..3u8).prop_map(|(addr, r)| Some(Hop {
            addr,
            reply: [
                ReplyType::TimeExceeded,
                ReplyType::EchoReply,
                ReplyType::DestUnreachable
            ][r as usize],
        })),
    ]
}

fn trace() -> impl Strategy<Value = Trace> {
    (
        prop_oneof![
            Just("vp-1"),
            Just("vp-2"),
            Just("vp-3"),
            Just(""),
            Just("vp-\"q\"\\\t\u{1}é"),
        ]
        .prop_map(str::to_string),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(hop(), 0..12),
        0..4u8,
    )
        .prop_map(|(monitor, src, dst, hops, stop)| Trace {
            monitor,
            src,
            dst,
            hops,
            stop: [
                StopReason::Completed,
                StopReason::GapLimit,
                StopReason::Unreachable,
                StopReason::NoRoute,
            ][stop as usize],
        })
}

proptest! {
    #[test]
    fn rows_are_their_inputs(traces in proptest::collection::vec(trace(), 0..40)) {
        let corpus: Corpus = traces.iter().cloned().collect();
        prop_assert_eq!(corpus.len(), traces.len());
        for (row, t) in corpus.iter().zip(&traces) {
            prop_assert_eq!(row.to_owned(), t.clone());
            prop_assert_eq!(row.responsive_count(), t.responsive_count());
            prop_assert_eq!(row.last_hop(), t.last_hop());
            prop_assert_eq!(row.to_string(), t.to_string());
        }
    }

    #[test]
    fn concatenated_chunks_equal_a_one_shot_build(
        traces in proptest::collection::vec(trace(), 0..40),
        cuts in proptest::collection::vec(0..40usize, 0..5),
    ) {
        let whole: Corpus = traces.iter().cloned().collect();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(traces.len())).collect();
        bounds.extend([0, traces.len()]);
        bounds.sort_unstable();
        let chunks: Vec<Corpus> = bounds
            .windows(2)
            .map(|w| traces[w[0]..w[1]].iter().cloned().collect())
            .collect();
        let joined = Corpus::concat(chunks).unwrap();
        prop_assert_eq!(&joined, &whole);
        for (a, b) in joined.iter().zip(&whole) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn equality_ignores_monitor_table_order(traces in proptest::collection::vec(trace(), 0..40)) {
        let forward: Corpus = traces.iter().cloned().collect();
        // The same rows over a table interned in reverse first-appearance
        // order, and behind a chunk whose table holds an unused name.
        let mut names: Vec<&str> = Vec::new();
        for t in &traces {
            if !names.contains(&t.monitor.as_str()) {
                names.push(&t.monitor);
            }
        }
        let mut reversed = Corpus::with_monitors(names.into_iter().rev()).unwrap();
        reversed.extend(traces.iter().cloned());
        prop_assert_eq!(&reversed, &forward);
        let unused = Corpus::with_monitors(["unused"]).unwrap();
        let joined = Corpus::concat(vec![unused, reversed]).unwrap();
        prop_assert_eq!(&joined, &forward);
    }

    #[test]
    fn jsonl_roundtrips(traces in proptest::collection::vec(trace(), 0..20)) {
        let corpus: Corpus = traces.iter().cloned().collect();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &corpus).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        for (line, t) in text.lines().zip(&traces) {
            prop_assert_eq!(line, serde_json::to_string(t).unwrap());
        }
        prop_assert_eq!(read_jsonl(&buf[..]).unwrap(), corpus);
    }
}
