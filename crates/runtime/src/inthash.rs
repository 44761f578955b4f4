//! The one hasher of the simulator's integer-keyed hash tables: request
//! ids (the cluster's live table, a replica's scheduler-to-cluster id
//! map, the step core's first-token times) and decode step shapes (the
//! price cache).
//!
//! Declare such a table as `HashMap<K, V, IntHash>` and build it with
//! `HashMap::default()`. Keeping the `HashMap` name in the type keeps
//! moe-lint's `no-hashmap-iter-in-sim` rule on it: none of these tables
//! may be iterated, so the hash order never reaches a report.

use std::hash::{BuildHasherDefault, Hasher};

/// Build-hasher for [`MulHasher`].
pub type IntHash = BuildHasherDefault<MulHasher>;

/// Multiply-rotate hasher for integer keys: one multiply per word, where
/// std's default SipHash costs a few dozen cycles per lookup. The keys are
/// the simulator's own ids and step shapes, not attacker input, so
/// flooding resistance buys nothing here.
#[derive(Debug, Default)]
pub struct MulHasher(u64);

impl MulHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; the table indexes
        // buckets by them.
        self.0.rotate_left(26)
    }
}
