//@ path: crates/x/src/fixture.rs
pub fn no_caller_anywhere() -> u64 { //~ dead-pub
    1
}

pub fn only_tests_call_it() -> u64 { //~ dead-pub
    2
}

pub struct S;

impl S {
    pub fn method_without_callers(&self) -> u64 { //~ dead-pub
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_scope_is_never_flagged() {}

    #[test]
    fn t() {
        assert_eq!(only_tests_call_it(), 2);
    }
}
