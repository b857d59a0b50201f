//! A minimal Rust lexer: just enough token structure for the detlint rules.
//!
//! The workspace vendors its entire dependency graph and `syn` is not part
//! of it, so detlint carries its own scanner. It understands the lexical
//! shapes that matter for *not* producing false positives — line and
//! (nested) block comments, string/char/byte/raw-string literals, lifetimes
//! versus char literals, numeric literals with float detection, and the
//! multi-character punctuation Rust glues together (`::`, `+=`, `>>`, …).
//! Everything inside comments and literals is invisible to the rules, with
//! one exception: comments are searched for `detlint::allow` annotations,
//! which are returned alongside the token stream.

/// Token kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal; `float` is true for floating-point shapes.
    Number {
        /// Whether the literal is floating-point (`1.0`, `2e9`, `3f64`).
        float: bool,
    },
    /// Punctuation (possibly multi-character, e.g. `::`, `+=`).
    Punct,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its 1-based source position.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A `detlint::allow` annotation — `(rule, ...): reason` — found in a
/// comment.
#[derive(Clone, Debug)]
pub struct AllowSite {
    /// Line the annotation comment starts on.
    pub line: u32,
    /// Rules the annotation names (as written; validated by the driver).
    pub rules: Vec<String>,
    /// Free-text justification after the `:` (may be empty — invalid).
    pub reason: String,
    /// Whether the annotation had the `): reason` tail at all.
    pub well_formed: bool,
}

/// Multi-character punctuation, longest first so matching is greedy.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
    "%=", "^=", "|=", "&=", "&&", "||", "<<", ">>", "..",
];

/// The annotation marker searched for inside comments.
const ALLOW_MARKER: &str = "detlint::allow(";

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src`, returning the token stream and any allow annotations.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<AllowSite>) {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Advance over `n` chars updating line/col bookkeeping.
    macro_rules! bump {
        ($n:expr) => {
            for _ in 0..$n {
                if i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];

        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Line comment (also doc comments `///`, `//!`).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start_line = line;
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                bump!(1);
            }
            scan_allow(&text, start_line, &mut allows);
            continue;
        }

        // Block comment, possibly nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start_line = line;
            let mut depth = 0usize;
            let mut text = String::new();
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    text.push_str("*/");
                    bump!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(chars[i]);
                    bump!(1);
                }
            }
            scan_allow(&text, start_line, &mut allows);
            continue;
        }

        // String-literal prefixes: r"", r#""#, b"", br#""#, c"", cr#""#,
        // and raw identifiers r#ident.
        if is_ident_start(c) {
            let mut j = i;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            let word: String = chars[i..j].iter().collect();
            let next = chars.get(j).copied();
            let stringish = matches!(word.as_str(), "r" | "b" | "br" | "c" | "cr");
            if stringish && (next == Some('"') || next == Some('#')) {
                // Raw identifier r#ident (not r#" which is a raw string).
                if word == "r"
                    && next == Some('#')
                    && chars.get(j + 1).copied().is_some_and(is_ident_start)
                {
                    let (l, co) = (line, col);
                    bump!(2); // r#
                    let mut text = String::new();
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        text.push(chars[i]);
                        bump!(1);
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text,
                        line: l,
                        col: co,
                    });
                    continue;
                }
                // Raw string: skip prefix, count #s, then scan to "#*n.
                bump!(j - i);
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    hashes += 1;
                    bump!(1);
                }
                if chars.get(i) == Some(&'"') {
                    bump!(1);
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                bump!(1 + hashes);
                                break 'raw;
                            }
                        }
                        bump!(1);
                    }
                }
                continue;
            }
            // Plain identifier / keyword.
            let (l, co) = (line, col);
            bump!(j - i);
            toks.push(Tok {
                kind: TokKind::Ident,
                text: word,
                line: l,
                col: co,
            });
            continue;
        }

        // Ordinary string literal.
        if c == '"' {
            bump!(1);
            while i < chars.len() {
                if chars[i] == '\\' {
                    bump!(2);
                } else if chars[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    bump!(1);
                }
            }
            continue;
        }

        // Lifetime or char literal.
        if c == '\'' {
            let n1 = chars.get(i + 1).copied();
            let n2 = chars.get(i + 2).copied();
            if n1.is_some_and(is_ident_start) && n2 != Some('\'') {
                // Lifetime: 'ident not closed by a quote.
                let (l, co) = (line, col);
                bump!(1);
                let mut text = String::from("'");
                while i < chars.len() && is_ident_continue(chars[i]) {
                    text.push(chars[i]);
                    bump!(1);
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line: l,
                    col: co,
                });
            } else {
                // Char literal (possibly escaped).
                bump!(1);
                while i < chars.len() {
                    if chars[i] == '\\' {
                        bump!(2);
                    } else if chars[i] == '\'' {
                        bump!(1);
                        break;
                    } else {
                        bump!(1);
                    }
                }
            }
            continue;
        }

        // Numeric literal.
        if c.is_ascii_digit() {
            let (l, co) = (line, col);
            let mut text = String::new();
            let mut float = false;
            let hexish =
                c == '0' && matches!(chars.get(i + 1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
            if hexish {
                text.push(chars[i]);
                text.push(chars[i + 1]);
                bump!(2);
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    text.push(chars[i]);
                    bump!(1);
                }
            } else {
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    text.push(chars[i]);
                    bump!(1);
                }
                // Fraction: '.' followed by a digit (not `..` or a method).
                if chars.get(i) == Some(&'.')
                    && chars
                        .get(i + 1)
                        .copied()
                        .is_some_and(|d| d.is_ascii_digit())
                {
                    float = true;
                    text.push('.');
                    bump!(1);
                    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        text.push(chars[i]);
                        bump!(1);
                    }
                }
                // Exponent.
                if matches!(chars.get(i), Some('e' | 'E'))
                    && (chars
                        .get(i + 1)
                        .copied()
                        .is_some_and(|d| d.is_ascii_digit())
                        || (matches!(chars.get(i + 1), Some('+' | '-'))
                            && chars
                                .get(i + 2)
                                .copied()
                                .is_some_and(|d| d.is_ascii_digit())))
                {
                    float = true;
                    text.push(chars[i]);
                    bump!(1);
                    while i < chars.len()
                        && (chars[i].is_ascii_digit() || matches!(chars[i], '+' | '-' | '_'))
                    {
                        text.push(chars[i]);
                        bump!(1);
                    }
                }
                // Suffix (u32, f64, ...).
                let suffix_start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    text.push(chars[i]);
                    bump!(1);
                }
                let suffix: String = chars[suffix_start..i].iter().collect();
                if suffix.starts_with('f') {
                    float = true;
                }
            }
            toks.push(Tok {
                kind: TokKind::Number { float },
                text,
                line: l,
                col: co,
            });
            continue;
        }

        // Punctuation: greedy multi-char match.
        let (l, co) = (line, col);
        let mut matched = None;
        for p in PUNCTS {
            let plen = p.chars().count();
            if i + plen <= chars.len() {
                let cand: String = chars[i..i + plen].iter().collect();
                if cand == *p {
                    matched = Some(cand);
                    break;
                }
            }
        }
        let text = matched.unwrap_or_else(|| c.to_string());
        let n = text.chars().count();
        bump!(n);
        toks.push(Tok {
            kind: TokKind::Punct,
            text,
            line: l,
            col: co,
        });
    }

    (toks, allows)
}

/// Parses `detlint::allow` occurrences — `(rule, ...): reason` — out of
/// one comment's text.
fn scan_allow(comment: &str, start_line: u32, out: &mut Vec<AllowSite>) {
    let mut rest = comment;
    let mut line_offset = 0u32;
    while let Some(pos) = rest.find(ALLOW_MARKER) {
        line_offset += rest[..pos].matches('\n').count() as u32;
        let after = &rest[pos + ALLOW_MARKER.len()..];
        let (rules_text, tail, well_formed) = match after.find(')') {
            Some(close) => (&after[..close], &after[close + 1..], true),
            None => (after, "", false),
        };
        let rules: Vec<String> = rules_text
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = tail
            .trim_start()
            .strip_prefix(':')
            .map(|r| r.lines().next().unwrap_or("").trim().to_string())
            .unwrap_or_default();
        let well_formed = well_formed && tail.trim_start().starts_with(':');
        out.push(AllowSite {
            line: start_line + line_offset,
            rules,
            reason,
            well_formed,
        });
        rest = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = r##"
            // DefaultHasher in a comment
            /* nested /* RandomState */ still comment */
            let s = "thread_rng inside a string";
            let r = r#"raw "SystemTime" string"#;
            let c = 'x';
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|t| t == "DefaultHasher"));
        assert!(!ids.iter().any(|t| t == "RandomState"));
        assert!(!ids.iter().any(|t| t == "thread_rng"));
        assert!(!ids.iter().any(|t| t == "SystemTime"));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let (toks, _) = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
    }

    #[test]
    fn multichar_punct_is_glued() {
        let (toks, _) = lex("a += b; c::d; e >> 2; f..g");
        let puncts: Vec<String> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert!(puncts.contains(&"+=".to_string()));
        assert!(puncts.contains(&"::".to_string()));
        assert!(puncts.contains(&">>".to_string()));
        assert!(puncts.contains(&"..".to_string()));
    }

    #[test]
    fn float_detection() {
        let (toks, _) = lex("let a = 1.5; let b = 2e9; let c = 3f64; let d = 4; let e = 0x1F;");
        let floats: Vec<bool> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Number { float } => Some(float),
                _ => None,
            })
            .collect();
        assert_eq!(floats, vec![true, true, true, false, false]);
    }

    #[test]
    fn range_is_not_a_float() {
        let (toks, _) = lex("for i in 0..10 {}");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Number { .. }))
            .collect();
        assert_eq!(nums.len(), 2);
        assert!(nums
            .iter()
            .all(|t| t.kind == TokKind::Number { float: false }));
    }

    #[test]
    fn allow_annotations_are_parsed() {
        let marker = "detlint::allow";
        let src = format!(
            "// {marker}(float-accum): fixed-order fold\nlet x = 1;\n// {marker}(a, b): two rules\n// {marker}(broken
"
        );
        let (_, allows) = lex(&src);
        assert_eq!(allows.len(), 3);
        assert_eq!(allows[0].line, 1);
        assert_eq!(allows[0].rules, vec!["float-accum"]);
        assert_eq!(allows[0].reason, "fixed-order fold");
        assert!(allows[0].well_formed);
        assert_eq!(allows[1].rules, vec!["a", "b"]);
        assert!(!allows[2].well_formed);
    }
}
