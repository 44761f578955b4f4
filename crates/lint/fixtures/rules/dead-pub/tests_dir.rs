//@ path: tests/dead_pub.rs
pub fn integration_test_helpers_are_never_flagged() -> u64 {
    1
}
