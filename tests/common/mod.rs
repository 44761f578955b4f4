//! Helpers shared by the integration tests.

/// FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into the FNV-1a digest `hash`, one round per byte. The
/// golden-bit tests feed values as little-endian bytes of their bits.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}
