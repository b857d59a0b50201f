//! Totality of the RIR delegated-extended and prefix2as text parsers:
//! arbitrary bytes, sequences of grammar fragments and byte-mutated copies
//! of a small valid file never panic, and every rejection names a line of
//! the input and a reason.

use bgp::prefix2as::parse_prefix2as;
use bgp::rir::DelegationTable;
use proptest::prelude::*;

/// A delegated-extended file with a header, a summary line, a comment,
/// `asn` and `ipv4` records (aligned and not), and an `ipv6` record the
/// parser skips.
const RIR_FIXTURE: &str = "\
2|arin|20200101|6|19700101|20200101|+0000
arin|*|ipv4|*|3|summary
# delegations
arin|US|asn|64500|1|20200101|assigned|ORG-A
ripencc|NL|asn|64501|1|20200101|allocated|ORG-B
arin|US|ipv4|192.0.2.0|256|20200101|assigned|ORG-A
ripencc|NL|ipv4|198.51.100.64|192|20200101|allocated|ORG-B
apnic|JP|ipv4|203.0.113.0|3|20200101|assigned|ORG-C
afrinic|ZA|ipv6|2001:db8::|32|20200101|allocated|ORG-D
lacnic|BR|ipv4|255.255.255.0|256|20200101|assigned|ORG-E
";

/// A prefix2as file with tab- and space-separated lines, a MOAS line, an
/// AS-set line, a comment and a blank line.
const P2A_FIXTURE: &str = "\
# routeviews prefix2as
10.0.0.0\t8\t1
192.0.2.0\t24\t64500
198.51.100.0 24 13335_4826

203.0.113.0\t25\t{7018,3356}
0.0.0.0\t0\t4294967295
255.255.255.255\t32\t0
";

/// The number of lines in `text`, counting a final unterminated one.
fn line_count(text: &str) -> usize {
    text.split('\n').count()
}

/// Parses `input` as a delegated-extended file: a table, or an error
/// reading `line N: <reason>` with N a line of the input.
fn check_rir(input: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(input);
    if let Err(msg) = DelegationTable::parse_extended_format(&text) {
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
    Ok(())
}

/// Parses `input` as prefix2as: entries, or an error naming a line of the
/// input and a reason.
fn check_prefix2as(input: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(input);
    match parse_prefix2as(&text) {
        Ok(entries) => {
            prop_assert!(entries.len() <= line_count(&text));
            for e in &entries {
                prop_assert!(e.prefix.len() <= 32);
                prop_assert!(!e.origins.is_empty());
            }
        }
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

/// Runs both parsers on `input`.
fn check_both(input: &[u8]) -> Result<(), TestCaseError> {
    check_rir(input)?;
    check_prefix2as(input)
}

/// Fragments of both grammars, so random sequences get past the first
/// field: registries, record types, addresses, counts at and past the
/// 32-bit and 64-bit limits, lengths past 32, origin encodings, separators
/// and line breaks.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: &[&str] = &[
        "|",
        "\t",
        " ",
        "\n",
        "\r\n",
        "#",
        "2",
        "_",
        ",",
        "{",
        "}",
        "arin",
        "ripencc",
        "apnic",
        "lacnic",
        "afrinic",
        "example",
        "US",
        "*",
        "asn",
        "ipv4",
        "ipv6",
        "summary",
        "assigned",
        "ORG-1",
        "0.0.0.0",
        "10.0.0.0",
        "255.255.255.0",
        "255.255.255.255",
        "256.0.0.0",
        "1.2.3",
        "0",
        "1",
        "24",
        "32",
        "33",
        "255",
        "256",
        "512",
        "4294967295",
        "4294967296",
        "17179869184",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "20200101",
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
fn mutated(fixture: &str, lines: &[usize], edits: &[Edit]) -> Vec<u8> {
    let fixture: Vec<&str> = fixture.lines().filter(|l| !l.is_empty()).collect();
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
fn the_fixtures_parse_and_their_prefixes_are_read_or_rejected_with_a_line() {
    let table = DelegationTable::parse_extended_format(RIR_FIXTURE).unwrap();
    // 192.0.2.0/24, /26 + /25, /31 + /32, and 255.255.255.0/24.
    assert_eq!(table.ipv4_count(), 6);
    assert_eq!(parse_prefix2as(P2A_FIXTURE).unwrap().len(), 6);
    for fixture in [RIR_FIXTURE, P2A_FIXTURE] {
        let bytes = fixture.as_bytes();
        for cut in 0..=bytes.len() {
            check_both(&bytes[..cut]).unwrap();
        }
    }
}

#[test]
fn ranges_past_the_address_space_are_rejected_with_their_line() {
    for record in [
        "arin|US|ipv4|0.0.0.0|17179869184|20200101|allocated|org1",
        "arin|US|ipv4|0.0.0.0|18446744073709551615|20200101|allocated|org1",
        "arin|US|ipv4|255.255.255.0|512|20200101|allocated|org1",
        "arin|US|ipv4|255.255.255.255|2|20200101|allocated|org1",
    ] {
        let text = format!("{RIR_FIXTURE}{record}\n");
        let want = format!(
            "line {}: ipv4 range past 255.255.255.255",
            RIR_FIXTURE.lines().count() + 1
        );
        assert_eq!(
            DelegationTable::parse_extended_format(&text).unwrap_err(),
            want
        );
        check_both(text.as_bytes()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        check_both(&bytes)?;
    }

    #[test]
    fn grammar_fragments_never_panic(parts in proptest::collection::vec(fragment(), 0..64)) {
        check_both(&parts.concat())?;
    }

    #[test]
    fn mutated_rir_lines_never_panic(
        lines in proptest::collection::vec(0usize..16, 1..6),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        check_rir(&mutated(RIR_FIXTURE, &lines, &edits))?;
    }

    #[test]
    fn mutated_prefix2as_lines_never_panic(
        lines in proptest::collection::vec(0usize..16, 1..6),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        check_prefix2as(&mutated(P2A_FIXTURE, &lines, &edits))?;
    }
}
