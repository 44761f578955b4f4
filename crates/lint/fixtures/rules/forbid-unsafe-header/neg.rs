//@ path: crates/x/src/lib.rs
#![forbid(unsafe_code)]
fn f() {}
