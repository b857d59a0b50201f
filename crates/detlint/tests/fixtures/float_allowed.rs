fn demo(rows: &[f64]) -> f64 {
    let mut acc = 0.0;
    for r in rows {
        // detlint::allow(float-accum): fixture — fixed-order fold above the line
        acc += r;
    }
    acc -= 0.5; // detlint::allow(float-accum): fixture — trailing allow
    acc
}
