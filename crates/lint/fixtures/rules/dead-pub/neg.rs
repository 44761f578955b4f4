//@ path: crates/x/src/fixture.rs
pub(crate) fn crate_visible() -> u64 {
    private_helper()
}

fn private_helper() -> u64 {
    1
}

// lint:allow(dead-pub) -- proc-macro entry point, invoked by its derive name
pub fn derive_entry_point() {}
