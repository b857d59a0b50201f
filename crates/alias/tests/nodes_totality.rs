//! Totality of the ITDK nodes-file parser (`AliasSets::from_nodes_file`):
//! arbitrary bytes, sequences of grammar fragments and byte-mutated copies
//! of a small valid file never panic, and every rejection names a line of
//! the input and a reason.

use alias::AliasSets;
use proptest::prelude::*;

/// A nodes file with comments, a blank line, multi-address nodes separated
/// by one and two spaces, a single-address node (not a group) and the
/// extreme addresses.
const FIXTURE: &str = "\
# ITDK-style nodes file: node <id>: <addr> <addr> ...
node N1:  10.0.0.1 10.0.0.2
node N2: 192.0.2.1  192.0.2.9 198.51.100.7

node N3: 203.0.113.5
node N4: 0.0.0.0 255.255.255.255
";

/// The number of lines in `text`, counting a final unterminated one.
fn line_count(text: &str) -> usize {
    text.split('\n').count()
}

/// Parses `input`: alias sets, or an error reading `line N: <reason>` with
/// N a line of the input.
fn check(input: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(input);
    match AliasSets::from_nodes_file(&text) {
        Ok(sets) => prop_assert!(sets.len() <= line_count(&text)),
        Err(msg) => {
            let rest = msg.strip_prefix("line ");
            prop_assert!(rest.is_some(), "no line prefix: {}", msg);
            let (n, reason) = rest.unwrap().split_once(": ").unwrap_or(("", ""));
            let n: usize = n
                .parse()
                .map_err(|_| TestCaseError::fail(format!("no line number: {msg}")))?;
            let lines = line_count(&text);
            prop_assert!((1..=lines).contains(&n), "line {} of {}: {}", n, lines, msg);
            prop_assert!(!reason.is_empty(), "no reason: {}", msg);
        }
    }
    Ok(())
}

/// Fragments of the grammar: the `node` keyword, ids, the colon,
/// addresses (valid, signed, out of range, short, zero-padded, with
/// non-ASCII digits), separators and line breaks.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: &[&str] = &[
        "node ",
        "node",
        "N1",
        "N999999",
        ":",
        " ",
        "  ",
        "\t",
        "\n",
        "\r\n",
        "#",
        ".",
        "+",
        "-",
        "10.0.0.1",
        "+10.0.0.1",
        "10.+0.0.1",
        "255.255.255.255",
        "256.0.0.0",
        "1.2.3",
        "01.2.3.4",
        "\u{0661}.2.3.4",
        "0",
        "255",
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

/// `lines` (indices taken modulo the fixture's non-empty lines), each
/// newline-terminated, with `edits` applied to the whole buffer.
fn mutated(lines: &[usize], edits: &[Edit]) -> Vec<u8> {
    let fixture: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let mut buf = Vec::new();
    for &i in lines {
        buf.extend_from_slice(fixture[i % fixture.len()].as_bytes());
        buf.push(b'\n');
    }
    for e in edits {
        apply(&mut buf, e);
    }
    buf
}

#[test]
fn the_fixture_parses_and_every_prefix_of_it_is_read_or_rejected_with_a_line() {
    let sets = AliasSets::from_nodes_file(FIXTURE).unwrap();
    assert_eq!(sets.len(), 3);
    let bytes = FIXTURE.as_bytes();
    for cut in 0..=bytes.len() {
        check(&bytes[..cut]).unwrap();
    }
}

#[test]
fn signed_addresses_are_rejected_with_their_line() {
    for (record, token) in [
        ("node N999999: +10.0.0.1 10.0.0.2", "+10.0.0.1"),
        ("node N999999: 10.0.0.1 10.+0.0.2", "10.+0.0.2"),
        ("node N999999: +1.+2.+3.+4 10.0.0.2", "+1.+2.+3.+4"),
        ("node N999999: 10.0.0.1 -1.2.3.4", "-1.2.3.4"),
    ] {
        let text = format!("{FIXTURE}{record}\n");
        let want = format!(
            "line {}: bad address {token:?}",
            FIXTURE.lines().count() + 1
        );
        assert_eq!(AliasSets::from_nodes_file(&text).unwrap_err(), want);
        check(text.as_bytes()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        check(&bytes)?;
    }

    #[test]
    fn grammar_fragments_never_panic(parts in proptest::collection::vec(fragment(), 0..64)) {
        check(&parts.concat())?;
    }

    #[test]
    fn mutated_lines_never_panic(
        lines in proptest::collection::vec(0usize..16, 1..6),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        check(&mutated(&lines, &edits))?;
    }
}
