//! Negative fixture: identifiers inside byte/C/raw string literals
//! are string *content*, not identifiers, and must never fire a rule.

fn f() -> u8 {
    let a = br#"thread_rng SystemTime::now() rand::random()"#;
    let b = cr#"DefaultHasher thread::spawn rayon"#;
    let c = r#"RandomState Instant::now() crossbeam"#;
    let d = b"thread_rng";
    a[0] + d[0]
}
