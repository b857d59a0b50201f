//! Totality of the CAIDA serial-1 parser: arbitrary bytes, sequences of
//! grammar fragments and byte-mutated copies of a small valid file never
//! panic, and every rejection names a line of the input and a reason.

use as_rel::AsRelationships;
use net_types::Asn;
use proptest::prelude::*;

/// A serial-1 file with comments, a blank line, transit and peering
/// records, a self-relationship (ignored) and the largest 32-bit ASN.
const FIXTURE: &str = "\
# source:topology|BGP
# <provider-as>|<customer-as>|-1

3356|64500|-1
64500|64501|-1
1299|3356|0
7|7|0
4294967295|1|-1
";

/// The number of lines in `text`, counting a final unterminated one.
fn line_count(text: &str) -> usize {
    text.split('\n').count()
}

/// Parses `input`: relationships, or an error naming a line of the input
/// and a reason.
fn check(input: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(input);
    match AsRelationships::from_serial1(&text) {
        Ok(rels) => prop_assert!(rels.len() <= line_count(&text)),
        Err(e) => {
            let lines = line_count(&text);
            prop_assert!(
                (1..=lines).contains(&e.line),
                "line {} of {}: {}",
                e.line,
                lines,
                e
            );
            prop_assert!(!e.message.is_empty(), "no reason: {}", e);
        }
    }
    Ok(())
}

/// Fragments of the grammar: separators, relationship codes, signed and
/// padded numbers, numbers at and past the 32-bit limit, non-ASCII digits
/// and line breaks.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: &[&str] = &[
        "|",
        "\n",
        "\r\n",
        "#",
        " ",
        "\t",
        "-1",
        "0",
        "1",
        "+",
        "-",
        "+1",
        "+65000",
        "3356",
        "64500",
        "4294967295",
        "4294967296",
        "18446744073709551616",
        "00",
        "\u{0661}",
        "\u{FF11}",
        "AS",
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
    let rels = AsRelationships::from_serial1(FIXTURE).unwrap();
    assert_eq!(rels.len(), 4);
    assert!(rels.is_provider(Asn(u32::MAX), Asn(1)));
    let bytes = FIXTURE.as_bytes();
    for cut in 0..=bytes.len() {
        check(&bytes[..cut]).unwrap();
    }
}

#[test]
fn signed_asns_are_rejected_with_their_line() {
    for (record, reason) in [
        ("+65000|+3|-1", "bad first AS"),
        ("65000|+3|-1", "bad second AS"),
        ("+1|2|0", "bad first AS"),
        ("-1|2|-1", "bad first AS"),
    ] {
        let text = format!("{FIXTURE}{record}\n");
        let e = AsRelationships::from_serial1(&text).unwrap_err();
        assert_eq!(e.line, FIXTURE.lines().count() + 1, "{record}");
        assert_eq!(e.message, reason, "{record}");
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
