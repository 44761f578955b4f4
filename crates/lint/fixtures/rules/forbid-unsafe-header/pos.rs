//@ path: crates/x/src/lib.rs
//~ forbid-unsafe-header @ 1
fn f() {}
