//! Totality of the trace JSON-lines reader: arbitrary bytes and corrupted
//! copies of a valid file never panic, and every rejection is a typed
//! `InvalidData` error that names a line of the input.

use proptest::prelude::*;
use traceroute::io::read_jsonl;

/// Written by the `Vec<Trace>` serde writer (see `corpus.rs`).
const FIXTURE: &[u8] = include_bytes!("data/traces.jsonl");

/// Reads `input` and checks the outcome: a corpus, or an `InvalidData`
/// error reading `line N: <reason>` with N a line of the input.
fn check_total(input: &[u8]) -> Result<(), TestCaseError> {
    let lines = input.split(|&b| b == b'\n').count();
    match read_jsonl(input) {
        Ok(corpus) => prop_assert!(corpus.len() <= lines),
        Err(e) => {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
            let msg = e.to_string();
            let rest = msg.strip_prefix("line ");
            prop_assert!(rest.is_some(), "no line prefix: {}", msg);
            let (n, reason) = rest.unwrap().split_once(": ").unwrap_or(("", ""));
            let n: usize = n
                .parse()
                .map_err(|_| TestCaseError::fail(format!("no line number: {msg}")))?;
            prop_assert!((1..=lines).contains(&n), "line {} of {}: {}", n, lines, msg);
            prop_assert!(!reason.is_empty(), "no reason: {}", msg);
        }
    }
    Ok(())
}

/// Fragments of the record grammar, so random sequences reach past the
/// first byte of the parser: keys, values, escapes, numbers at and past
/// the `u32` range, separators and line breaks.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        " ",
        "\n",
        "\"",
        "\\",
        "\\u00e9",
        "\\ud800",
        "\\n",
        "\"monitor\"",
        "\"src\"",
        "\"dst\"",
        "\"hops\"",
        "\"stop\"",
        "\"addr\"",
        "\"reply\"",
        "\"vp\"",
        "null",
        "true",
        "0",
        "-1",
        "1e3",
        "4294967295",
        "4294967296",
        "\"TimeExceeded\"",
        "\"EchoReply\"",
        "\"DestUnreachable\"",
        "\"Completed\"",
        "\"GapLimit\"",
        "\"Unreachable\"",
        "\"Loop\"",
        "{\"addr\":1,\"reply\":\"EchoReply\"}",
    ];
    prop_oneof![
        3 => (0..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        1 => proptest::collection::vec(any::<u8>(), 1..4),
    ]
}

/// One byte-level edit of a buffer, at a position taken modulo its length.
#[derive(Clone, Debug)]
enum Edit {
    Replace(usize, u8),
    Delete(usize),
    Insert(usize, u8),
    /// Copies `len` bytes from the first position to the second.
    Duplicate(usize, usize, usize),
    Truncate(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        4 => (any::<usize>(), any::<u8>()).prop_map(|(p, b)| Edit::Replace(p, b)),
        2 => any::<usize>().prop_map(Edit::Delete),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(p, b)| Edit::Insert(p, b)),
        1 => (any::<usize>(), any::<usize>(), 1usize..64)
            .prop_map(|(from, to, len)| Edit::Duplicate(from, to, len)),
        1 => any::<usize>().prop_map(Edit::Truncate),
    ]
}

fn apply(buf: &mut Vec<u8>, edit: &Edit) {
    let at = |p: usize, len: usize| if len == 0 { 0 } else { p % len };
    match *edit {
        Edit::Replace(p, b) if !buf.is_empty() => {
            let i = at(p, buf.len());
            buf[i] = b;
        }
        Edit::Delete(p) if !buf.is_empty() => {
            buf.remove(at(p, buf.len()));
        }
        Edit::Insert(p, b) => buf.insert(at(p, buf.len() + 1), b),
        Edit::Duplicate(from, to, len) if !buf.is_empty() => {
            let from = at(from, buf.len());
            let span = buf[from..(from + len).min(buf.len())].to_vec();
            let to = at(to, buf.len() + 1);
            buf.splice(to..to, span);
        }
        Edit::Truncate(p) => buf.truncate(at(p, buf.len() + 1)),
        _ => {}
    }
}

#[test]
fn the_fixture_and_its_prefixes_are_read_or_rejected_with_a_line() {
    check_total(FIXTURE).unwrap();
    for cut in 0..FIXTURE.len() {
        check_total(&FIXTURE[..cut]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        check_total(&bytes)?;
    }

    #[test]
    fn grammar_fragments_never_panic(parts in proptest::collection::vec(fragment(), 0..64)) {
        check_total(&parts.concat())?;
    }

    #[test]
    fn mutated_fixture_lines_never_panic(
        lines in proptest::collection::vec(0usize..11, 1..6),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        let fixture: Vec<&[u8]> = FIXTURE.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let mut buf = Vec::new();
        for &i in &lines {
            buf.extend_from_slice(fixture[i % fixture.len()]);
            buf.push(b'\n');
        }
        for e in &edits {
            apply(&mut buf, e);
        }
        check_total(&buf)?;
    }
}
