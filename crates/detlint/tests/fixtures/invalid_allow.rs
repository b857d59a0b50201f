fn demo() {
    // detlint::allow(float-accum)
    let x = 1;
    // detlint::allow(no-such-rule): the rule name is wrong
    let y = 2;
    let _ = x + y;
}
