//! FNV-1a, the serve tier's one fixed (unkeyed) hash. The WAL's frame and
//! manifest CRCs, the copy-on-write name map's shard choice and a view's
//! fingerprint all run through it, so each is the same value in every
//! process that computes it.

/// Streaming 64-bit FNV-1a.
pub(crate) struct Fnv(u64);

impl Fnv {
    /// The hash of no bytes (the FNV offset basis).
    #[inline]
    pub(crate) const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of every byte eaten so far.
    #[inline]
    pub(crate) const fn finish(self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    #[inline]
    pub(crate) fn of(bytes: &[u8]) -> u64 {
        let mut hash = Self::new();
        hash.eat(bytes);
        hash.finish()
    }
}
